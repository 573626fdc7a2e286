// Request-class aggregation: the workload-side key to million-user scale.
//
// Eq. (2) makes a request's completion time D_h a pure function of its
// attachment node, its chain, and its demand profile (edge data volumes,
// upload/return payloads); the deadline D_h^max completes everything the
// constraint system reads per user. Two users agreeing on that tuple are
// therefore indistinguishable to every solver stage, and the per-user loops
// of routing, scoring, evaluation, and validation can run once per
// *equivalence class* and multiply by the class weight (DESIGN.md §4g).
//
// RequestClasses collapses a request vector into such weighted classes.
// Grouping is by exact field equality (a 64-bit FNV-1a fingerprint is only a
// bucketing accelerator — colliding fingerprints never merge distinct
// requests), so the per-class representative routes to bit-identical results
// with every member. test_differential's aggregation lane checks this: every
// member's own per-user ChainRouter route must equal the class-aggregated
// solve's assignment, node for node.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/microservice.h"

namespace socl::workload {

/// One equivalence class: users sharing (attach node, chain, edge data,
/// payloads, deadline). The representative is the lowest-id member.
struct RequestClass {
  /// Request id of the representative (== members.front()).
  int representative = -1;
  /// Class cardinality as a double: totals are formed as weight · value, so
  /// the weighted sum is one rounding per class rather than |members|.
  double weight = 0.0;
  /// Member request ids, ascending. The expansion API: per-user outputs
  /// (CSV rows, D_h audits, arrival traces) fan a class value back out.
  std::vector<int> members;
  /// FNV-1a fingerprint of the demand tuple (bucketing key, not identity).
  std::uint64_t fingerprint = 0;

  int size() const { return static_cast<int>(members.size()); }
};

/// 64-bit FNV-1a over everything Eq. (2) and Eq. (4) read from one request:
/// attach node, chain, edge data bits, payload bits, deadline bits. The id
/// is deliberately excluded — it is the one field aggregation erases.
std::uint64_t request_fingerprint(const UserRequest& request);

/// True when a and b are interchangeable to the solver stack (exact field
/// equality on the fingerprinted tuple; ids may differ).
bool same_request_class(const UserRequest& a, const UserRequest& b);

/// The aggregation pass: collapses a request vector into weighted classes.
/// Deterministic: classes are ordered by first appearance (ascending
/// representative id when requests arrive in id order) and members keep the
/// input order. Requires dense unique ids in [0, requests.size()).
class RequestClasses {
 public:
  RequestClasses() = default;
  explicit RequestClasses(const std::vector<UserRequest>& requests);

  int num_classes() const { return static_cast<int>(classes_.size()); }
  int num_users() const { return num_users_; }

  const std::vector<RequestClass>& classes() const { return classes_; }
  const RequestClass& cls(int c) const {
    return classes_.at(static_cast<std::size_t>(c));
  }

  /// Class index of one user (request id).
  int class_of(int user) const {
    return class_of_.at(static_cast<std::size_t>(user));
  }

  /// Σ class weights == number of users.
  double total_weight() const { return static_cast<double>(num_users_); }

  /// users / classes — the socl.scale.compression metric; 1.0 when empty.
  double compression_ratio() const {
    return classes_.empty() ? 1.0
                            : static_cast<double>(num_users_) /
                                  static_cast<double>(classes_.size());
  }

  /// Class ids (ascending) whose representative chain contains microservice
  /// m; empty for services no class uses. An inverted chain index: per-
  /// microservice consumers (ζ sweeps, demand scans) iterate it instead of
  /// testing `uses(m)` against every class. Ids outside the indexed range
  /// (no class mentions them) resolve to the empty list.
  const std::vector<int>& classes_using(MsId m) const {
    const auto idx = static_cast<std::size_t>(m);
    return idx < classes_using_.size() ? classes_using_[idx] : kNoClasses;
  }

 private:
  std::vector<RequestClass> classes_;
  std::vector<int> class_of_;
  /// classes_using_[m]: ascending class ids with m in their chain.
  std::vector<std::vector<int>> classes_using_;
  int num_users_ = 0;

  static const std::vector<int> kNoClasses;
};

/// Structure-of-arrays view of the per-class demand tuples — everything
/// Eq. (2) reads, flattened into contiguous buffers so the scoring kernel
/// (core/score_kernel.h) walks plain arrays instead of chasing one
/// UserRequest per class. Class c's chain occupies
/// chain[chain_offset[c] .. chain_offset[c+1]) and its chain-edge data
/// volumes occupy edge_data[edge_offset[c] .. edge_offset[c+1])
/// (edge e sits between chain positions e and e+1). Values are copied
/// verbatim from the representatives, so anything computed from this view is
/// bit-identical to computing from the requests themselves.
struct ClassDemandSoA {
  std::vector<std::int32_t> chain_offset;  ///< size num_classes()+1
  std::vector<MsId> chain;                 ///< flat concatenated chains
  std::vector<std::int32_t> edge_offset;   ///< size num_classes()+1
  std::vector<double> edge_data;           ///< flat chain-edge volumes
  std::vector<net::NodeId> attach;         ///< attach node per class
  std::vector<double> data_in;             ///< upload payload per class
  std::vector<double> data_out;            ///< return payload per class
  std::vector<double> deadline;            ///< D_h^max per class
  std::vector<double> weight;              ///< class cardinality per class
  std::vector<int> representative;         ///< representative request id

  int num_classes() const { return static_cast<int>(attach.size()); }
  std::size_t chain_length(int c) const {
    return static_cast<std::size_t>(chain_offset[static_cast<std::size_t>(c) +
                                                 1] -
                                    chain_offset[static_cast<std::size_t>(c)]);
  }

  /// Rebuilds the view from a class partition over its request vector
  /// (buffer capacity is reused, so periodic rebuilds on workload mutation
  /// settle into zero allocations once the sizes stabilise).
  void build(const RequestClasses& classes,
             const std::vector<UserRequest>& requests);

  /// Heap footprint of the flattened buffers (the socl.kernel.soa_bytes
  /// gauge feeds from this).
  std::size_t bytes() const;
};

/// Synthetic population builder for the scale benches: replicates the given
/// template requests round-robin up to `num_users` requests with fresh dense
/// ids, so the resulting workload has at most `templates.size()` request
/// classes whatever the population size.
std::vector<UserRequest> replicate_requests(
    const std::vector<UserRequest>& templates, int num_users);

}  // namespace socl::workload
