// All-pairs shortest paths on the substrate network.
//
// The paper routes along minimum-hop paths π*(v_a, v_b) (e.g. d_out "selects
// the shortest return path according to the minimum number of hops"). Among
// equal-hop predecessors we keep the one maximising the bottleneck link rate
// so that the induced virtual-link bandwidth (harmonic mean over the path) is
// deterministic and as strong as possible.
#pragma once

#include <limits>
#include <vector>

#include "net/graph.h"

namespace socl::net {

/// Precomputed min-hop routing table (BFS from every source).
class ShortestPaths {
 public:
  explicit ShortestPaths(const EdgeNetwork& network);

  /// Hop count between a and b; 0 when a == b;
  /// `unreachable()` when disconnected.
  int hops(NodeId a, NodeId b) const;
  static constexpr int unreachable() { return std::numeric_limits<int>::max(); }

  bool reachable(NodeId a, NodeId b) const {
    return hops(a, b) != unreachable();
  }

  /// Link ids along the min-hop path from a to b; empty when a == b or
  /// unreachable. The ids are the exact links the BFS tie-break selected,
  /// so on parallel edges they are consistent with bottleneck_rate /
  /// inverse_rate_sum.
  std::vector<LinkId> path_links(NodeId a, NodeId b) const;

  /// Minimum link rate along the min-hop path (bottleneck bandwidth);
  /// +inf when a == b, 0 when unreachable. No shipped binary calls it: it is
  /// the bound VirtualLinks::rate is tested against.
  double bottleneck_rate(NodeId a, NodeId b) const;

  /// Sum of 1/rate over the path links: transfer of r data units takes
  /// r · inverse_rate_sum(a, b) seconds (Eq. 2's Σ r/b(l)).
  /// 0 when a == b, +inf when unreachable.
  double inverse_rate_sum(NodeId a, NodeId b) const;

  std::size_t num_nodes() const { return n_; }

 private:
  std::size_t idx(NodeId a, NodeId b) const;

  const EdgeNetwork* network_;
  std::size_t n_;
  std::vector<int> hops_;           // n*n
  std::vector<NodeId> parent_;      // n*n: parent of b on path from a
  std::vector<LinkId> parent_link_; // n*n: link into b the BFS selected
  std::vector<double> inv_rate_;    // n*n: Σ 1/rate along path
  std::vector<double> bottleneck_;  // n*n
};

}  // namespace socl::net
