#include "workload/mobility.h"

#include <cstdint>

#include "net/failures.h"

#include <stdexcept>

namespace socl::workload {

void mobility_step(const net::EdgeNetwork& network,
                   std::vector<UserRequest>& requests,
                   const std::vector<double>& weights,
                   const MobilityConfig& config, util::Rng& rng) {
  if (weights.size() != network.num_nodes()) {
    throw std::invalid_argument("mobility_step: weight size mismatch");
  }
  for (auto& request : requests) {
    if (!rng.bernoulli(config.move_prob)) continue;
    const auto neighbors = network.neighbors(request.attach_node);
    if (!neighbors.empty() && rng.bernoulli(config.local_hop_prob)) {
      request.attach_node = neighbors[rng.index(neighbors.size())].neighbor;
    } else {
      request.attach_node =
          static_cast<net::NodeId>(rng.weighted_index(weights));
    }
  }
}

int reattach_users(const net::EdgeNetwork& degraded,
                   const std::vector<net::NodeId>& failed_nodes,
                   std::vector<UserRequest>& requests) {
  // No early-out on empty failed_nodes: link-only failures can isolate
  // alive stations, and failover_targets covers those too.
  const auto fallback = net::failover_targets(degraded, failed_nodes);
  std::vector<std::uint8_t> failed(degraded.num_nodes(), 0);
  for (const net::NodeId k : failed_nodes) {
    if (k >= 0 && static_cast<std::size_t>(k) < degraded.num_nodes()) {
      failed[static_cast<std::size_t>(k)] = 1;
    }
  }
  int moved = 0;
  for (auto& request : requests) {
    const net::NodeId target =
        fallback[static_cast<std::size_t>(request.attach_node)];
    if (target == net::kInvalidNode) {
      if (failed[static_cast<std::size_t>(request.attach_node)] != 0) {
        throw std::runtime_error("reattach_users: no surviving node");
      }
      continue;  // healthy, or isolated with nowhere better to go
    }
    request.attach_node = target;
    ++moved;
  }
  return moved;
}

}  // namespace socl::workload
