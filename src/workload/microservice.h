// Microservice and user-request models from Section III-A.
//
// A microservice m_i carries a deployment cost κ(m_i), a storage requirement
// φ(m_i), and a computing requirement q(m_i). A user request u_h is a
// directed chain of microservices M_h with communication edges E_h whose data
// volumes r_{m_i→m_j} drive the link-delay terms of Eq. (2).
#pragma once

#include <string>
#include <vector>

#include "net/graph.h"

namespace socl::workload {

using MsId = int;

inline constexpr MsId kInvalidMs = -1;

/// One microservice type (instances of it may be deployed on many nodes).
struct Microservice {
  MsId id = kInvalidMs;
  std::string name;
  /// Deployment cost κ(m_i) per instance, in cost units.
  double deploy_cost = 300.0;
  /// Storage requirement φ(m_i) per instance, in storage units.
  double storage = 1.0;
  /// Computing requirement q(m_i) in GFLOP per invocation.
  double compute_gflop = 2.0;
};

/// A user request u_h = {M_h, E_h}: a chain of microservices with data
/// volumes on the chain edges, an attachment node (the edge server whose
/// coverage area the user is in, f(u_h)), upload/return payload sizes, and a
/// completion-time tolerance D_h^max.
struct UserRequest {
  int id = -1;
  /// Edge server the user currently associates with (U_k membership).
  net::NodeId attach_node = net::kInvalidNode;
  /// Ordered microservice chain M_h (processing order; a microservice may
  /// appear at multiple positions).
  std::vector<MsId> chain;
  /// Data volume r_{m_i→m_j} on chain edge (pos → pos+1);
  /// size == chain.size() - 1.
  std::vector<double> edge_data;
  /// Upload payload r_in^h (user → first microservice's node).
  double data_in = 1.0;
  /// Return payload r_out^h (last microservice's node → user).
  double data_out = 1.0;
  /// Completion-time tolerance D_h^max (Eq. 4).
  double deadline = 1e9;

  /// Position of the FIRST occurrence of m in the chain, or -1. Callers
  /// that must see every occurrence (repeats are allowed) should scan the
  /// chain directly.
  int position_of(MsId m) const;
};

/// Validates structural invariants (non-empty chain, matching edge_data
/// length, in-range microservice ids, positive data sizes).
/// Throws std::invalid_argument on violation.
void validate(const UserRequest& request, int num_microservices);

}  // namespace socl::workload
