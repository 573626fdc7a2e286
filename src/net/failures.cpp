#include "net/failures.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace socl::net {
namespace {

/// BFS over the alive subgraph from `start`, marking reached survivors in
/// `visited`. Alive = node not failed, link not failed and rate > 0 (a
/// zero-rate link exists but carries no traffic — routing never traverses
/// it, so connectivity must not either). Returns the number of survivors
/// reached. `queue` is caller-provided scratch so plan sampling can reuse
/// one allocation across hundreds of candidate checks.
std::size_t flood(const EdgeNetwork& network, const FailureMasks& masks,
                  NodeId start, std::vector<std::uint8_t>& visited,
                  std::vector<NodeId>& queue) {
  visited.assign(network.num_nodes(), 0);
  queue.clear();
  queue.push_back(start);
  visited[static_cast<std::size_t>(start)] = 1;
  std::size_t reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId k = queue[head];
    for (const auto& [neighbor, link] : network.neighbors(k)) {
      if (masks.link[static_cast<std::size_t>(link)] != 0) continue;
      if (network.link(link).rate_gbps <= 0.0) continue;
      if (masks.node[static_cast<std::size_t>(neighbor)] != 0) continue;
      if (visited[static_cast<std::size_t>(neighbor)] != 0) continue;
      visited[static_cast<std::size_t>(neighbor)] = 1;
      ++reached;
      queue.push_back(neighbor);
    }
  }
  return reached;
}

bool survivors_connected_masked(const EdgeNetwork& network,
                                const FailureMasks& masks,
                                std::vector<std::uint8_t>& visited,
                                std::vector<NodeId>& queue) {
  NodeId anchor = kInvalidNode;
  std::size_t survivors = 0;
  for (NodeId k = 0; k < static_cast<NodeId>(network.num_nodes()); ++k) {
    if (masks.node[static_cast<std::size_t>(k)] != 0) continue;
    ++survivors;
    if (anchor == kInvalidNode) anchor = k;
  }
  if (survivors <= 1) return true;  // nothing (or nothing else) to reach
  return flood(network, masks, anchor, visited, queue) == survivors;
}

}  // namespace

FailureMasks failure_masks(const EdgeNetwork& network,
                           const FailurePlan& plan) {
  FailureMasks masks;
  masks.node.assign(network.num_nodes(), 0);
  masks.link.assign(network.num_links(), 0);
  for (const NodeId k : plan.failed_nodes) {
    if (k < 0 || static_cast<std::size_t>(k) >= network.num_nodes()) {
      throw std::out_of_range("failure_masks: bad node id");
    }
    masks.node[static_cast<std::size_t>(k)] = 1;
  }
  for (const LinkId l : plan.failed_links) {
    if (l < 0 || static_cast<std::size_t>(l) >= network.num_links()) {
      throw std::out_of_range("failure_masks: bad link id");
    }
    masks.link[static_cast<std::size_t>(l)] = 1;
  }
  // A link incident to a failed node is failed too.
  for (std::size_t l = 0; l < network.num_links(); ++l) {
    const auto& link = network.link(static_cast<LinkId>(l));
    if (masks.node[static_cast<std::size_t>(link.a)] != 0 ||
        masks.node[static_cast<std::size_t>(link.b)] != 0) {
      masks.link[l] = 1;
    }
  }
  return masks;
}

EdgeNetwork apply_failures(const EdgeNetwork& network,
                           const FailurePlan& plan) {
  const FailureMasks masks = failure_masks(network, plan);
  EdgeNetwork degraded(network.noise_w());
  for (std::size_t k = 0; k < network.num_nodes(); ++k) {
    EdgeNode node = network.node(static_cast<NodeId>(k));
    if (masks.node[k] != 0) {
      // Isolated husk: keeps the id stable but can host nothing. Compute
      // stays epsilon-positive so latency formulas remain finite if a stale
      // placement is evaluated against the degraded substrate.
      node.compute_gflops = 1e-6;
      node.storage_units = 0.0;
    }
    degraded.add_node(node);
  }
  for (std::size_t l = 0; l < network.num_links(); ++l) {
    if (masks.link[l] != 0) continue;
    const auto& link = network.link(static_cast<LinkId>(l));
    degraded.add_link_with_rate(link.a, link.b, link.rate_gbps);
  }
  return degraded;
}

bool survivors_connected(const EdgeNetwork& network,
                         const FailureMasks& masks) {
  if (masks.node.size() != network.num_nodes() ||
      masks.link.size() != network.num_links()) {
    throw std::invalid_argument("survivors_connected: mask size mismatch");
  }
  std::vector<std::uint8_t> visited;
  std::vector<NodeId> queue;
  return survivors_connected_masked(network, masks, visited, queue);
}

FailurePlan random_failures(const EdgeNetwork& network,
                            double link_failure_prob, int max_node_failures,
                            util::Rng& rng, bool keep_survivors_connected) {
  FailurePlan plan;
  if (network.num_nodes() == 0) return plan;  // nothing to fail

  // Incrementally maintained masks: each candidate is tried by flipping
  // its bit and running one BFS over the original adjacency — no degraded
  // network is ever built while sampling.
  FailureMasks masks;
  masks.node.assign(network.num_nodes(), 0);
  masks.link.assign(network.num_links(), 0);
  std::vector<std::uint8_t> visited;
  std::vector<NodeId> queue;

  const auto fail_node = [&](NodeId k) {
    masks.node[static_cast<std::size_t>(k)] = 1;
    for (const auto& [neighbor, link] : network.neighbors(k)) {
      (void)neighbor;
      masks.link[static_cast<std::size_t>(link)] += 1;
    }
  };
  const auto revive_node = [&](NodeId k) {
    masks.node[static_cast<std::size_t>(k)] = 0;
    for (const auto& [neighbor, link] : network.neighbors(k)) {
      (void)neighbor;
      masks.link[static_cast<std::size_t>(link)] -= 1;
    }
  };

  // Node failures first (they dominate connectivity).
  for (int attempt = 0;
       attempt < 4 * max_node_failures &&
       static_cast<int>(plan.failed_nodes.size()) < max_node_failures;
       ++attempt) {
    const auto k = static_cast<NodeId>(rng.index(network.num_nodes()));
    if (masks.node[static_cast<std::size_t>(k)] != 0) continue;
    fail_node(k);
    if (keep_survivors_connected &&
        !survivors_connected_masked(network, masks, visited, queue)) {
      revive_node(k);
      continue;
    }
    plan.failed_nodes.push_back(k);
  }
  for (std::size_t l = 0; l < network.num_links(); ++l) {
    if (!rng.bernoulli(link_failure_prob)) continue;
    if (masks.link[l] != 0) continue;  // already down with its endpoint
    masks.link[l] = 1;
    if (keep_survivors_connected &&
        !survivors_connected_masked(network, masks, visited, queue)) {
      masks.link[l] = 0;
      continue;
    }
    plan.failed_links.push_back(static_cast<LinkId>(l));
  }
  return plan;
}

std::vector<NodeId> failover_targets(
    const EdgeNetwork& degraded, const std::vector<NodeId>& failed_nodes) {
  std::vector<std::uint8_t> failed(degraded.num_nodes(), 0);
  for (const NodeId k : failed_nodes) {
    if (k < 0 || static_cast<std::size_t>(k) >= degraded.num_nodes()) continue;
    failed[static_cast<std::size_t>(k)] = 1;
  }

  // A survivor is only a usable failover target if at least one incident
  // link still carries traffic; `degraded` comes from apply_failures, so
  // links incident to failed nodes are already gone and only rate > 0
  // links count (zero-rate links are recorded-but-dead).
  const auto linked = [&](NodeId k) {
    for (const auto& [neighbor, link] : degraded.neighbors(k)) {
      (void)neighbor;
      if (degraded.link(link).rate_gbps > 0.0) return true;
    }
    return false;
  };
  bool any_linked_survivor = false;
  for (NodeId k = 0; k < static_cast<NodeId>(degraded.num_nodes()); ++k) {
    if (failed[static_cast<std::size_t>(k)] == 0 && linked(k)) {
      any_linked_survivor = true;
      break;
    }
  }

  std::vector<NodeId> fallback(degraded.num_nodes(), kInvalidNode);
  for (NodeId dead = 0; dead < static_cast<NodeId>(degraded.num_nodes());
       ++dead) {
    const bool node_failed = failed[static_cast<std::size_t>(dead)] != 0;
    // Alive-but-isolated stations displace their users too: link failures
    // can strip an alive node of every usable link, and users camped there
    // would be unreachable exactly as on a dead node. (When no linked
    // survivor exists anywhere, isolated survivors stay put — local-only
    // service beats stranding everyone.)
    const bool isolated = !node_failed && any_linked_survivor && !linked(dead);
    if (!node_failed && !isolated) continue;
    double best = std::numeric_limits<double>::infinity();
    for (NodeId k = 0; k < static_cast<NodeId>(degraded.num_nodes()); ++k) {
      if (failed[static_cast<std::size_t>(k)] != 0 || k == dead) continue;
      if (any_linked_survivor && !linked(k)) continue;
      const auto& a = degraded.node(dead);
      const auto& b = degraded.node(k);
      const double dx = a.x_m - b.x_m;
      const double dy = a.y_m - b.y_m;
      const double dist = dx * dx + dy * dy;
      if (dist < best) {
        best = dist;
        fallback[static_cast<std::size_t>(dead)] = k;
      }
    }
  }
  return fallback;
}

}  // namespace socl::net
