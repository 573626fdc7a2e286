// Failure injection for resilience studies: edge links and whole edge
// servers can fail; the framework must re-provision on the degraded
// substrate. Node ids stay stable across failures (placements and request
// attachments keep indexing the same servers), a failed node is isolated —
// all incident links removed, compute/storage zeroed — and its users are
// re-attached to the nearest alive station that still has an alive link
// (a survivor stripped of every incident link is a dead cell too).
//
// All predicates work on failed-id bitmasks over the ORIGINAL network's
// ids, so sampling a plan never materialises a degraded network per
// candidate — the chaos lane (src/serve/chaos.*) evaluates hundreds of
// candidate failures per simulated day on metro-scale topologies.
#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.h"
#include "util/rng.h"

namespace socl::net {

struct FailurePlan {
  std::vector<LinkId> failed_links;
  std::vector<NodeId> failed_nodes;

  bool empty() const { return failed_links.empty() && failed_nodes.empty(); }
};

/// Dense failed-id masks over the original network (1 = failed). The
/// link mask also reflects node failures: a link incident to a failed
/// node counts as failed.
struct FailureMasks {
  std::vector<std::uint8_t> node;
  std::vector<std::uint8_t> link;
};

/// Expands a plan into bitmasks sized for `network`. Throws
/// std::out_of_range on ids outside the network.
FailureMasks failure_masks(const EdgeNetwork& network,
                           const FailurePlan& plan);

/// Applies a failure plan: returns a network with the same node ids where
/// failed nodes are isolated (no links, ~zero compute, zero storage) and
/// failed links are absent. Link ids are re-assigned.
EdgeNetwork apply_failures(const EdgeNetwork& network,
                           const FailurePlan& plan);

/// Samples a random failure plan. Links fail independently with
/// `link_failure_prob`; up to `max_node_failures` nodes fail uniformly.
/// When `keep_survivors_connected` is set, candidate failures that would
/// disconnect the surviving subgraph are skipped (a bounded number of
/// attempts, so the plan can come back smaller than requested — or empty
/// on a topology where every candidate disconnects). An empty network
/// yields an empty plan.
FailurePlan random_failures(const EdgeNetwork& network,
                            double link_failure_prob, int max_node_failures,
                            util::Rng& rng,
                            bool keep_survivors_connected = true);

/// True when every non-failed node of `network` can reach every other
/// non-failed node through links that are alive in `masks` (links of zero
/// rate are not traversable, matching routing). Vacuously true when zero or
/// one survivor remains, including the all-nodes-failed and empty-network
/// cases. Runs on the ORIGINAL (healthy) network: no degraded network is
/// materialised — this is the O(nodes + links) inner loop of plan sampling
/// and the chaos schedule's guard.
bool survivors_connected(const EdgeNetwork& network,
                         const FailureMasks& masks);

/// Nearest surviving node for every failed node AND for every alive node
/// that link failures stripped of its last usable link (geometric
/// distance — users camp on the next-closest cell); kInvalidNode entries
/// for healthy reachable nodes. Survivors with zero alive incident links
/// are skipped as targets — re-homing a displaced user onto an unreachable
/// station would strand them — unless no linked survivor exists at all, in
/// which case the nearest isolated survivor is better than nothing (a
/// single-survivor network can still serve locally). Used by
/// workload::reattach_users.
std::vector<NodeId> failover_targets(const EdgeNetwork& degraded,
                                     const std::vector<NodeId>& failed_nodes);

}  // namespace socl::net
