// Differential fuzzing of the solver stack (DESIGN.md §4f).
//
// Generates hundreds of seeded tiny scenarios (≤6 nodes, ≤5 microservices,
// varied λ / budget / storage tightness, disconnected substrates, chains
// with repeated microservices), runs the SoCL heuristic, the exact
// branch-and-bound, and the MIP model on each, audits every returned
// solution with SolutionValidator, and checks the cross-solver invariants:
//
//   * validator verdicts agree with Evaluation flags bit-for-bit
//     (deadline-violation count, budget, storage, routability) and the
//     independently recomputed Σ D_h / objective match to tolerance;
//   * on a replicated workload, the solve's class-aggregated assignment
//     (DESIGN.md §4g) equals every user's own per-user ChainRouter route
//     under the solved placement, node for node, and validates cleanly;
//   * heuristic objective >= exact optimum (the exact solver is a lower
//     bound over the same budget-feasible space);
//   * exact-infeasible implies the heuristic cannot produce a validated
//     budget-feasible routable solution;
//   * the MIP-decoded placement satisfies the encoded constraint rows and
//     cannot beat the exact optimum over the same (storage-feasible) space;
//   * the exact optimum, encoded as a warm start, is MIP-model-feasible and
//     its model objective respects the MIP dual bound ("exact ≡ MIP within
//     tolerance" on the shared linearised model).
//
// Everything is deterministic in the seed: a CI failure prints the seed and
// `fuzz_differential --seed N --verbose` reproduces it exactly
// (EXPERIMENTS.md "Reproducing a fuzz failure").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/score_kernel.h"
#include "validate/validator.h"

namespace socl::validate {

/// One generated instance. Owns its catalog (the Scenario only borrows it).
struct FuzzCase {
  std::unique_ptr<workload::AppCatalog> catalog;
  std::unique_ptr<core::Scenario> scenario;
  /// Human-readable shape, e.g. "4 nodes geometric, 3 ms, 5 users, ...".
  std::string description;
};

/// Deterministically builds the instance for `seed`.
FuzzCase make_fuzz_case(std::uint64_t seed);

struct FuzzOptions {
  int cases = 200;
  std::uint64_t base_seed = 1;
  /// Also cross-check the MIP model (skipped on disconnected substrates,
  /// whose linearised coefficients are not finite).
  bool run_mip = true;
  double exact_time_limit_s = 10.0;
  double mip_time_limit_s = 10.0;
  /// Relative tolerance for objective comparisons.
  double tolerance = 1e-6;
  bool verbose = false;
};

/// Outcome of one seed.
struct CaseResult {
  std::uint64_t seed = 0;
  std::string description;
  bool agreed = true;
  /// The exact solver timed out, so the cross-solver legs have no verdict
  /// (the heuristic self-consistency checks still ran).
  bool exact_skipped = false;
  bool mip_checked = false;
  /// Diagnosis of every failed invariant, one line each; empty when agreed.
  std::string diagnosis;

  double heuristic_objective = 0.0;
  double exact_objective = 0.0;
};

/// Runs the full differential check for one seed.
CaseResult run_differential_case(std::uint64_t seed,
                                 const FuzzOptions& options);

struct FuzzSummary {
  int cases_run = 0;
  int disagreements = 0;
  int exact_skipped = 0;
  int mip_checked = 0;
  int exact_infeasible = 0;
  int heuristic_unroutable = 0;
  /// Every disagreeing case, with its seed and diagnosis.
  std::vector<CaseResult> failures;

  bool ok() const { return disagreements == 0; }
  std::string summary() const;
};

/// Runs seeds base_seed .. base_seed + cases - 1.
FuzzSummary run_differential_fuzz(const FuzzOptions& options);

/// The first request class whose ScoreKernel class_cost, routability,
/// class_route nodes or {d_in, compute, transfer, d_out} breakdown under
/// `placement` differs bitwise from ChainRouter's route_cost / route_into
/// on its representative, as a one-line diagnosis; "" when every class
/// agrees. Binds `arena` to `placement`; kernel work counts into `stats`.
std::string kernel_oracle_mismatch(const core::Scenario& scenario,
                                   const core::ScoreKernel& kernel,
                                   const core::Placement& placement,
                                   core::ScoreKernel::Arena& arena,
                                   core::KernelStats& stats);

/// RoutingEngine's objectives recomputed through core::ChainRouter in the
/// engine's class and summation order, so an engine refreshed to `cached`
/// must match them bit for bit. The constructor plays refresh(cached).
class ReferenceObjectives {
 public:
  ReferenceObjectives(const core::Scenario& scenario,
                      const core::Placement& cached);

  /// refresh()'s Σ_c weight_c · D_c (+inf when some class is unroutable).
  double latency_sum() const { return latency_sum_; }
  double full_objective(const core::Placement& placement) const;
  /// `trial` differs from the cached placement only in service `changed`.
  double objective_with_change(const core::Placement& trial,
                               workload::MsId changed) const;
  /// `trial` is the cached placement minus the instance (m, k).
  double objective_without(workload::MsId m, net::NodeId k,
                           const core::Placement& trial) const;
  bool any_deadline_violation(const core::Placement& placement) const;

 private:
  /// Class c's representative, and its route_cost under `placement`.
  const workload::UserRequest& request(int c) const;
  double cost(int c, const core::Placement& placement) const;
  /// cached latency sum + weight · (cost − cached) over `affected` classes
  /// in ascending order; +inf as soon as one is unroutable.
  template <typename Affected>
  double rescored(const core::Placement& trial, Affected affected) const;

  const core::Scenario* scenario_;
  core::Evaluator evaluator_;
  mutable core::RouteScratch scratch_;
  std::vector<double> latency_;  ///< per class: route total, +inf unroutable
  std::vector<std::vector<net::NodeId>> routes_;
  double latency_sum_ = 0.0;
};

/// Kernel lane (DESIGN.md §4h): solves the seed's instance once, then runs
/// kernel_oracle_mismatch (delay tables on and off) on the solved placement
/// and on seeded random placements, some leaving a class unroutable. It
/// then compares the routing engine with ReferenceObjectives on a dense
/// placement (refresh, full objective, per-service rescore, deadline
/// verdict), before and after a chain-shrinking set_requests mutation
/// (stale SoA and arena tails). Everything is compared bitwise.
CaseResult run_kernel_differential_case(std::uint64_t seed,
                                        const FuzzOptions& options);

/// Kernel lane over seeds base_seed .. base_seed + cases - 1 (exact/MIP
/// summary fields stay zero — this lane never runs those solvers).
FuzzSummary run_kernel_differential_fuzz(const FuzzOptions& options);

}  // namespace socl::validate
