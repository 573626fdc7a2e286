// Latency-optimal request routing given a placement.
//
// Given the deployment x, a user's optimal assignment y is a shortest path
// in a layered graph: layer `pos` holds the nodes hosting chain[pos], arc
// weights are the transmission-computation cycles d^h(m_i) of Definition 3.
// Because d_out in Eq. (2) returns the result to v_s — the node serving the
// *first* microservice — the terminal cost couples the first and last layer
// choices; the router therefore conditions the DP on the first-layer node
// and takes the best over all conditionings. This keeps every algorithm's
// placement scored by the same exact routing semantics.
#pragma once

#include <optional>
#include <span>

#include "core/placement.h"

namespace socl::core {

/// Completion-time breakdown of a routed request (terms of Eq. 2).
struct RouteResult {
  std::vector<NodeId> nodes;  // per chain position
  double d_in = 0.0;
  double compute = 0.0;
  double transfer = 0.0;
  double d_out = 0.0;
  double total() const { return d_in + compute + transfer + d_out; }
};

/// Reusable DP buffers for ChainRouter. Buffers grow to the largest
/// chain/candidate-set seen and are never shrunk, so a long-lived scratch
/// makes the steady-state routing path allocation-free. One scratch per
/// thread; a scratch must not be shared between concurrent route calls.
struct RouteScratch {
  std::vector<std::vector<NodeId>> layers;
  std::vector<double> dp;
  std::vector<double> next;
  std::vector<std::vector<int>> back;
  std::vector<NodeId> route;
};

class ChainRouter {
 public:
  explicit ChainRouter(const Scenario& scenario) : scenario_(&scenario) {}

  /// Optimal route for one user; nullopt when some chain microservice has no
  /// instance anywhere (service failure — the paper's cloud-fallback case).
  std::optional<RouteResult> route(const workload::UserRequest& request,
                                   const Placement& placement) const;

  /// As above, reusing the caller's scratch buffers; only the returned
  /// RouteResult allocates.
  std::optional<RouteResult> route(const workload::UserRequest& request,
                                   const Placement& placement,
                                   RouteScratch& scratch) const;

  /// As above, writing into a caller-owned result (nodes capacity is
  /// reused) — the fully allocation-free variant once scratch and `out`
  /// have warmed up. Returns false when the request is unroutable, leaving
  /// `out` unspecified.
  bool route_into(const workload::UserRequest& request,
                  const Placement& placement, RouteScratch& scratch,
                  RouteResult& out) const;

  /// Optimal completion time only — no back-pointers, no reconstruction, and
  /// no allocations once the scratch has warmed up. Returns +infinity when
  /// the request is unroutable. ScoreKernel::class_cost is checked against
  /// it bit for bit.
  double route_cost(const workload::UserRequest& request,
                    const Placement& placement, RouteScratch& scratch) const;

  /// Routes every user; returns nullopt if any user is unroutable.
  std::optional<Assignment> route_all(const Placement& placement) const;

  /// Completion time D_h (Eq. 2) of a fixed assignment for one user.
  /// Accepts any contiguous node range (vectors and Assignment rows alike).
  double completion_time(const workload::UserRequest& request,
                         std::span<const NodeId> route_nodes) const;

 private:
  const Scenario* scenario_;
};

}  // namespace socl::core
