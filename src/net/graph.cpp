#include "net/graph.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace socl::net {

double shannon_rate_gbps(double base_bandwidth, double tx_power_w,
                         double channel_gain, double noise_w) {
  if (base_bandwidth <= 0.0 || noise_w <= 0.0) return 0.0;
  const double snr = tx_power_w * channel_gain / noise_w;
  if (snr <= 0.0) return 0.0;
  return base_bandwidth * std::log2(1.0 + snr);
}

NodeId EdgeNetwork::add_node(EdgeNode node) {
  node.id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  adjacency_.emplace_back();
  return node.id;
}

LinkId EdgeNetwork::add_link(NodeId a, NodeId b, double base_bandwidth,
                             double channel_gain) {
  const double rate = shannon_rate_gbps(base_bandwidth, node(a).tx_power_w,
                                        channel_gain, noise_w_);
  LinkId id = add_link_with_rate(a, b, rate);
  links_[static_cast<std::size_t>(id)].base_bandwidth = base_bandwidth;
  links_[static_cast<std::size_t>(id)].channel_gain = channel_gain;
  return id;
}

LinkId EdgeNetwork::add_link_with_rate(NodeId a, NodeId b, double rate_gbps) {
  if (a == b) throw std::invalid_argument("EdgeNetwork: self-loop");
  checked(a);
  checked(b);
  // A zero rate is a valid (dead) link: shannon_rate_gbps legitimately
  // degenerates to 0 for a blocked channel, and the routing layer skips
  // zero-capacity incidences. Only negative rates are malformed.
  if (rate_gbps < 0.0) {
    throw std::invalid_argument("EdgeNetwork: negative link rate");
  }
  EdgeLink link;
  link.id = static_cast<LinkId>(links_.size());
  link.a = a;
  link.b = b;
  link.rate_gbps = rate_gbps;
  links_.push_back(link);
  adjacency_[static_cast<std::size_t>(a)].push_back({b, link.id});
  adjacency_[static_cast<std::size_t>(b)].push_back({a, link.id});
  return link.id;
}

bool EdgeNetwork::has_link(NodeId a, NodeId b) const {
  for (const auto& inc : neighbors(a)) {
    if (inc.neighbor == b) return true;
  }
  return false;
}

bool EdgeNetwork::connected() const {
  if (nodes_.empty()) return true;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId k = stack.back();
    stack.pop_back();
    for (const auto& inc : neighbors(k)) {
      if (!seen[static_cast<std::size_t>(inc.neighbor)]) {
        seen[static_cast<std::size_t>(inc.neighbor)] = true;
        ++visited;
        stack.push_back(inc.neighbor);
      }
    }
  }
  return visited == nodes_.size();
}

std::size_t EdgeNetwork::checked(NodeId k) const {
  if (k < 0 || static_cast<std::size_t>(k) >= nodes_.size()) {
    throw std::out_of_range("EdgeNetwork: bad node id");
  }
  return static_cast<std::size_t>(k);
}

}  // namespace socl::net
