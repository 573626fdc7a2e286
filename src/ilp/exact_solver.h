// Exact reference solver for tiny instances: branch-and-bound over the
// deployment matrix x with the *true* chain-coupled objective (Eq. 2 routing
// via ChainRouter). Exponential in |M|·|V| — intended for cross-checking the
// MIP model and the heuristics in tests, not for benchmarks at scale.
#pragma once

#include <limits>

#include "core/evaluator.h"

namespace socl::ilp {

struct ExactOptions {
  double time_limit_s = 30.0;
  /// Require deadline feasibility (Eq. 4); infeasible placements are skipped.
  bool enforce_deadlines = true;
  /// Require storage feasibility (Eq. 6).
  bool enforce_storage = true;
};

/// How the search terminated. Distinguishes "searched everything, nothing
/// feasible" (kInfeasible) from "ran out of time before any leaf"
/// (kTimedOut) — callers must not treat the latter as a proof.
enum class ExactStatus {
  kOptimal,     ///< full search completed; `objective` is the true optimum
  kIncumbent,   ///< timed out holding a feasible solution (upper bound only)
  kTimedOut,    ///< timed out with no feasible solution found — no verdict
  kInfeasible,  ///< full search completed; no feasible placement exists
};

struct ExactResult {
  bool found = false;
  bool timed_out = false;
  ExactStatus status = ExactStatus::kInfeasible;
  /// Best objective when `found`; +inf otherwise (an infeasible instance
  /// must never compare as better than a feasible one).
  double objective = std::numeric_limits<double>::infinity();
  core::Placement placement;
  std::size_t placements_scored = 0;
};

/// Enumerates non-empty host sets per requested microservice with
/// cost-based pruning. Objective and feasibility use the exact evaluator.
ExactResult solve_exact(const core::Scenario& scenario,
                        const ExactOptions& options = {});

}  // namespace socl::ilp
