// Deployment decision x(i,k) and routing assignment y(h,·,·) containers
// (Definition 3), plus the derived quantities the constraints check:
// per-node storage load (Eq. 6), total deployment cost (Eq. 1/5).
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/scenario.h"

namespace socl::core {

/// Binary deployment matrix x(i,k) over microservices × nodes.
class Placement {
 public:
  Placement(int num_microservices, int num_nodes);

  /// Built from a scenario's dimensions.
  explicit Placement(const Scenario& scenario)
      : Placement(scenario.num_microservices(), scenario.num_nodes()) {}

  int num_microservices() const { return services_; }
  int num_nodes() const { return nodes_; }

  bool deployed(MsId m, NodeId k) const { return x_[idx(m, k)] != 0; }
  void deploy(MsId m, NodeId k);
  void remove(MsId m, NodeId k);

  /// Number of instances of m across all nodes.
  int instance_count(MsId m) const {
    return instance_count_[static_cast<std::size_t>(m)];
  }
  /// Total instances across all microservices.
  int total_instances() const;

  /// Nodes currently hosting m (ascending ids).
  std::vector<NodeId> nodes_of(MsId m) const;

  /// Fills `out` with the nodes hosting m (ascending ids) without shrinking
  /// its capacity — the allocation-free variant the routing scratch relies
  /// on. Returns the number of instances written.
  std::size_t nodes_of_into(MsId m, std::vector<NodeId>& out) const;

  /// True when m is deployed on exactly the same nodes in `other` (which
  /// must have the same dimensions).
  bool same_nodes(MsId m, const Placement& other) const;

  /// Total deployment cost Σ_k K_k = Σ_{i,k} κ(m_i)·x(i,k).
  double deployment_cost(const workload::AppCatalog& catalog) const;

  /// Storage used on node k: Σ_i x(i,k)·φ(m_i).
  double storage_used(const workload::AppCatalog& catalog, NodeId k) const;

  /// True when every node satisfies Eq. (6).
  bool storage_feasible(const Scenario& scenario) const;

  bool operator==(const Placement& other) const = default;

 private:
  std::size_t idx(MsId m, NodeId k) const;

  int services_;
  int nodes_;
  std::vector<std::uint8_t> x_;
  std::vector<int> instance_count_;
};

/// Routing assignment: for user h and chain position pos, the node that
/// serves that microservice. kInvalidNode marks unassigned positions.
///
/// Storage is flat (one offset table plus one contiguous NodeId buffer)
/// rather than a vector per user: at aggregated million-user scale the
/// per-user vectors cost one heap allocation each just to construct, which
/// used to dominate route_all's expansion of class routes to members.
class Assignment {
 public:
  explicit Assignment(const Scenario& scenario);

  NodeId node_for(int user, int pos) const {
    return data_.at(offset_.at(static_cast<std::size_t>(user)) +
                    static_cast<std::size_t>(pos));
  }
  void set(int user, int pos, NodeId k) {
    data_.at(offset_.at(static_cast<std::size_t>(user)) +
             static_cast<std::size_t>(pos)) = k;
  }
  /// Bulk row write: copies a whole route into the user's slot range. One
  /// bounds check per user instead of two per chain position.
  void set_user_route(int user, const std::vector<NodeId>& nodes) {
    const auto h = static_cast<std::size_t>(user);
    const std::size_t begin = offset_.at(h);
    if (nodes.size() != offset_[h + 1] - begin) {
      throw std::out_of_range("Assignment: route length != chain length");
    }
    std::copy(nodes.begin(), nodes.end(), data_.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  std::span<const NodeId> user_route(int user) const {
    const auto h = static_cast<std::size_t>(user);
    const std::size_t begin = offset_.at(h);
    return {data_.data() + begin, offset_[h + 1] - begin};
  }
  int num_users() const { return static_cast<int>(offset_.size()) - 1; }

  /// True when every chain position of every user has a node and that node
  /// hosts the microservice (constraints 9-10).
  bool consistent_with(const Scenario& scenario,
                       const Placement& placement) const;

 private:
  /// offset_[h] .. offset_[h+1]: user h's slice of data_ (size users + 1).
  std::vector<std::size_t> offset_;
  std::vector<NodeId> data_;
};

}  // namespace socl::core
