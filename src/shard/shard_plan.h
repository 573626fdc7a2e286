// Shard plans and sub-problem extraction for the geo-sharded decomposition
// solver (DESIGN.md §4j).
//
// A ShardPlan is a partition of the substrate nodes into disjoint shards
// (metros, or Alg.-1-style regions). ShardProblem extracts one shard as a
// fully independent core::Scenario: the induced sub-network (nodes in
// ascending global id order, links in global insertion order, rates copied
// verbatim so BFS tables and virtual-link rates reproduce the global ones
// restricted to the shard), the users attached inside the shard (ids
// remapped to a dense local range, attach nodes remapped), and a copy of
// the problem constants the coordinator re-prices per dual-ascent iteration
// through Scenario::set_constants.
//
// Everything the solver stack derives per shard — request classes, route
// caches, SoA buffers, scoring arenas — lives inside that shard's Scenario /
// Combiner and is never shared across shards: shard solves are embarrassingly
// parallel by construction.
//
// The extraction is lossless for the degenerate one-shard plan: local ids
// equal global ids, the sub-network reproduces the global network link for
// link, and a solve of the extracted scenario is bit-identical to a solve of
// the original (test_shard's single-shard lane). ShardedSoCL nevertheless
// aliases that plan's one shard instead of extracting it: no copy.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/placement.h"
#include "core/scenario.h"

namespace socl::shard {

/// Disjoint node partition: shard_of[node] in [0, num_shards()).
struct ShardPlan {
  std::vector<int> shard_of;
  /// nodes[s]: global node ids of shard s, ascending.
  std::vector<std::vector<net::NodeId>> nodes;

  int num_shards() const { return static_cast<int>(nodes.size()); }
};

/// The trivial plan: every node in one shard (the unsharded solver's view).
ShardPlan single_shard_plan(const core::Scenario& scenario);

/// One shard per metro from a multi-metro membership map
/// (net::MultiMetroTopology::metro_of). Throws if a metro is empty.
ShardPlan plan_from_metros(const std::vector<int>& metro_of, int metros);

/// One shard: an extracted, independent Scenario plus the id maps back into
/// the global problem, or an alias of the whole global Scenario.
class ShardProblem {
 public:
  /// Extracts shard `shard` of `plan` from the global scenario, which must
  /// outlive this object (sync() re-localizes from its workload).
  ShardProblem(const core::Scenario& global, const ShardPlan& plan, int shard);
  /// Aliases `global` as the one shard of the one-shard plan: identity id
  /// maps, scenario() is `global` itself, nothing is copied.
  explicit ShardProblem(const core::Scenario& global);

  const core::Scenario& scenario() const { return own_ ? *own_ : *global_; }
  bool aliased() const { return !own_; }
  /// Sets an extracted shard's constants; an alias's are never written.
  void set_constants(const core::ProblemConstants& constants);

  int num_users() const {
    return own_ ? static_cast<int>(local_to_global_user_.size())
                : global_->num_users();
  }

  net::NodeId to_global_node(net::NodeId local) const {
    return local_to_global_node_[static_cast<std::size_t>(local)];
  }
  int to_global_user(int local) const {
    return own_ ? local_to_global_user_[static_cast<std::size_t>(local)]
                : local;
  }

  /// Re-reads the shard's workload from the global scenario; returns true
  /// when it moved since the last sync — the coordinator's per-shard
  /// incremental trigger. An extracted shard re-localizes (same rule as
  /// the constructor) and has moved when a member's demand tuple or the
  /// membership changed; an alias, when the global workload epoch did
  /// (which a substrate swap bumps too).
  bool sync();

  /// Minimal feasible spend: Σ κ(m) over microservices appearing in any of
  /// the shard's chains (each must be deployed at least once for the shard
  /// to be routable). The quota-negotiation floor.
  double min_feasible_spend() const;

  /// Folds the shard's placement into the global one.
  void merge_placement(const core::Placement& local,
                       core::Placement& global) const;
  /// Folds the shard's assignment into the global one (routes remapped to
  /// global node ids; scratch reused across calls).
  void merge_assignment(const core::Assignment& local,
                        core::Assignment& global) const;

 private:
  /// Extracts and remaps the shard-local subset of the global workload.
  std::vector<workload::UserRequest> localize();

  const core::Scenario* global_;
  std::vector<net::NodeId> local_to_global_node_;
  std::vector<net::NodeId> global_to_local_node_;  ///< kInvalidNode outside
  std::vector<int> local_to_global_user_;  ///< empty for an alias
  std::optional<core::Scenario> own_;      ///< empty for an alias
  std::uint64_t seen_epoch_ = 0;  ///< alias: global epoch at the last sync
};

}  // namespace socl::shard
