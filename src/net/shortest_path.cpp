#include "net/shortest_path.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace socl::net {

ShortestPaths::ShortestPaths(const EdgeNetwork& network)
    : network_(&network), n_(network.num_nodes()) {
  hops_.assign(n_ * n_, unreachable());
  parent_.assign(n_ * n_, kInvalidNode);
  parent_link_.assign(n_ * n_, -1);
  inv_rate_.assign(n_ * n_, std::numeric_limits<double>::infinity());
  bottleneck_.assign(n_ * n_, 0.0);

  // BFS per source; equal-hop ties resolved toward the larger bottleneck
  // rate (and then larger Σ1/rate improvement) for determinism.
  for (std::size_t src = 0; src < n_; ++src) {
    const auto source = static_cast<NodeId>(src);
    hops_[idx(source, source)] = 0;
    inv_rate_[idx(source, source)] = 0.0;
    bottleneck_[idx(source, source)] = std::numeric_limits<double>::infinity();

    std::deque<NodeId> frontier{source};
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      const int du = hops_[idx(source, u)];
      for (const auto& inc : network.neighbors(u)) {
        const NodeId v = inc.neighbor;
        const double rate =
            network.link(inc.link).rate_gbps;
        // A zero-capacity link carries no traffic: traversing it would give
        // an inf inverse-rate sum and a 0 bottleneck, letting a dead min-hop
        // path shadow a longer alive one and making transfer_time inf.
        if (rate <= 0.0) continue;
        const double cand_bottleneck =
            std::min(bottleneck_[idx(source, u)], rate);
        const double cand_inv = inv_rate_[idx(source, u)] + 1.0 / rate;
        auto& dv = hops_[idx(source, v)];
        if (dv == unreachable()) {
          dv = du + 1;
          parent_[idx(source, v)] = u;
          parent_link_[idx(source, v)] = inc.link;
          bottleneck_[idx(source, v)] = cand_bottleneck;
          inv_rate_[idx(source, v)] = cand_inv;
          frontier.push_back(v);
        } else if (dv == du + 1) {
          // Same hop count: prefer the stronger path. Parallel links between
          // u and v arrive as separate incidences, so the winning link id is
          // recorded alongside the parent node.
          auto& best_bottleneck = bottleneck_[idx(source, v)];
          auto& best_inv = inv_rate_[idx(source, v)];
          if (cand_bottleneck > best_bottleneck ||
              (cand_bottleneck == best_bottleneck && cand_inv < best_inv)) {
            parent_[idx(source, v)] = u;
            parent_link_[idx(source, v)] = inc.link;
            best_bottleneck = cand_bottleneck;
            best_inv = cand_inv;
          }
        }
      }
    }
  }
}

int ShortestPaths::hops(NodeId a, NodeId b) const { return hops_[idx(a, b)]; }

std::vector<LinkId> ShortestPaths::path_links(NodeId a, NodeId b) const {
  // Walk the recorded parent links instead of re-deriving incidences: with
  // parallel edges the first incident link between two path nodes can be a
  // different (weaker) link than the one whose rate produced the recorded
  // bottleneck_rate / inverse_rate_sum.
  std::vector<LinkId> links;
  if (hops(a, b) == unreachable()) return links;
  for (NodeId cur = b; cur != kInvalidNode && cur != a;
       cur = parent_[idx(a, cur)]) {
    links.push_back(parent_link_[idx(a, cur)]);
  }
  std::reverse(links.begin(), links.end());
  return links;
}

double ShortestPaths::bottleneck_rate(NodeId a, NodeId b) const {
  return bottleneck_[idx(a, b)];
}

double ShortestPaths::inverse_rate_sum(NodeId a, NodeId b) const {
  return inv_rate_[idx(a, b)];
}

std::size_t ShortestPaths::idx(NodeId a, NodeId b) const {
  if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= n_ ||
      static_cast<std::size_t>(b) >= n_) {
    throw std::out_of_range("ShortestPaths: bad node id");
  }
  return static_cast<std::size_t>(a) * n_ + static_cast<std::size_t>(b);
}

}  // namespace socl::net
