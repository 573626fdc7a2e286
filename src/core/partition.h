// Algorithm 1: Region-Based Initial Partitioning.
//
// For every microservice m_i: collect the demand nodes V(m_i), reconnect
// them with virtual links (harmonic-mean channel speed), keep links stronger
// than the threshold ξ, and take connected components as the initial groups
// P(m_i). Then augment each group with *candidate nodes* — nodes without
// demand for m_i whose degree exceeds 2 (Theorem 1) and whose proactive
// factor Δ^η (Definition 5) is negative against some group member, validated
// in ascending order of communication intensity χ.
#pragma once

#include <span>
#include <vector>

#include "core/scenario.h"

namespace socl::core {

struct PartitionConfig {
  /// ξ as a quantile of the pairwise virtual-link rates within V(m_i)
  /// (0 keeps everything in one group; 1 isolates every node).
  double xi_quantile = 0.25;
  /// When >= 0, overrides the quantile with an absolute rate threshold.
  double xi_absolute = -1.0;
  /// Toggle for the candidate-node augmentation (ablation switch).
  bool add_candidates = true;
};

/// Groups for one microservice: p_s(m_i) node lists. Demand nodes come
/// first in each group, candidates are appended.
struct MsPartition {
  std::vector<std::vector<NodeId>> groups;
};

/// P = {P(m_i)}, indexed by MsId.
struct Partitioning {
  std::vector<MsPartition> per_ms;
};

/// Proactive factor Δ^η (Eq. 12): expected completion-time deviation of
/// serving `group`'s demand for m from node eta instead of from group
/// member a. Negative means eta improves on a.
double proactive_factor(const Scenario& scenario, MsId m,
                        std::span<const NodeId> group, NodeId eta, NodeId a);

/// Resolved ξ for one microservice under `config` (exposed for tests).
double resolve_xi(const Scenario& scenario, MsId m,
                  const PartitionConfig& config);

/// Runs Algorithm 1 over every microservice.
Partitioning initial_partition(const Scenario& scenario,
                               const PartitionConfig& config);

}  // namespace socl::core
