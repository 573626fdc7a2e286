// Substrate edge-network model G(V, L) from Section III-A of the paper:
// a weighted undirected graph of edge servers v_k with computing capability
// c(v_k), storage capacity Φ(v_k), and links l_{k,k'} whose transmission rate
// follows the Shannon model b(l) = B(l)·log2(1 + γ·g/N).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace socl::net {

using NodeId = int;
using LinkId = int;

inline constexpr NodeId kInvalidNode = -1;

/// One edge server. Positions are metres in a local tangent plane anchored at
/// the deployment site (the topology generator anchors at the National
/// Stadium, Beijing per the paper's setup).
struct EdgeNode {
  NodeId id = kInvalidNode;
  double x_m = 0.0;
  double y_m = 0.0;
  /// Computing capability c(v_k) in GFLOP/s.
  double compute_gflops = 10.0;
  /// Storage capacity Φ(v_k) in storage units.
  double storage_units = 6.0;
  /// Transmission power γ in watts (used by the Shannon rate of its links).
  double tx_power_w = 1.0;
};

/// One undirected physical link l_{a,b}.
struct EdgeLink {
  LinkId id = -1;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  /// Base bandwidth B(l) in GHz-equivalent units.
  double base_bandwidth = 10.0;
  /// Channel gain g between the endpoints (path-loss model).
  double channel_gain = 1e-7;
  /// Effective Shannon rate b(l) in GB/s, precomputed at insertion.
  double rate_gbps = 0.0;
};

/// Shannon capacity b = B·log2(1 + γ·g/N). Returns 0 for non-positive SNR.
double shannon_rate_gbps(double base_bandwidth, double tx_power_w,
                         double channel_gain, double noise_w);

/// Weighted undirected edge network (parallel links permitted, self-loops
/// rejected). Node and link ids are dense indices assigned in insertion
/// order.
class EdgeNetwork {
 public:
  /// Thermal noise power N used when deriving link rates.
  explicit EdgeNetwork(double noise_w = 1e-9) : noise_w_(noise_w) {}

  /// Adds a node; returns its id. The node's `id` field is overwritten.
  NodeId add_node(EdgeNode node);

  /// Adds an undirected link between distinct existing nodes a and b with the
  /// given base bandwidth and channel gain; the Shannon rate is derived from
  /// node a's transmission power. Parallel links are allowed (e.g. a wired
  /// and a wireless channel between the same pair); routing tie-breaks pick
  /// the stronger one.
  LinkId add_link(NodeId a, NodeId b, double base_bandwidth,
                  double channel_gain);

  /// Adds a link with an explicitly fixed rate (used by tests and the
  /// Kubernetes-testbed emulator where rates are measured, not modelled).
  /// A rate of exactly 0 records a dead link — it exists but carries no
  /// traffic and is never traversed by routing; negative rates throw.
  LinkId add_link_with_rate(NodeId a, NodeId b, double rate_gbps);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_links() const { return links_.size(); }
  double noise_w() const { return noise_w_; }

  const EdgeNode& node(NodeId k) const { return nodes_.at(checked(k)); }
  EdgeNode& node(NodeId k) { return nodes_.at(checked(k)); }
  const EdgeLink& link(LinkId l) const {
    return links_.at(static_cast<std::size_t>(l));
  }

  /// (neighbor, link id) pairs incident to k.
  struct Incidence {
    NodeId neighbor;
    LinkId link;
  };
  std::span<const Incidence> neighbors(NodeId k) const {
    return adjacency_.at(checked(k));
  }

  /// Degree H(v_k): number of direct connections (Theorem 1 filter input).
  std::size_t degree(NodeId k) const { return adjacency_.at(checked(k)).size(); }

  bool has_link(NodeId a, NodeId b) const;

  /// True when every node can reach every other node.
  bool connected() const;

 private:
  std::size_t checked(NodeId k) const;

  double noise_w_;
  std::vector<EdgeNode> nodes_;
  std::vector<EdgeLink> links_;
  std::vector<std::vector<Incidence>> adjacency_;
};

}  // namespace socl::net
