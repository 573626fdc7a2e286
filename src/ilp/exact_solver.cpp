#include "ilp/exact_solver.h"

#include <limits>

#include "util/timer.h"

namespace socl::ilp {

using core::MsId;
using core::NodeId;

namespace {

struct SearchState {
  const core::Scenario* scenario;
  const ExactOptions* options;
  core::Evaluator evaluator;
  util::WallTimer timer;

  std::vector<MsId> requested;  // microservices with demand
  core::Placement current;
  double current_cost = 0.0;

  double best_objective = std::numeric_limits<double>::infinity();
  core::Placement best;
  bool found = false;
  bool timed_out = false;
  std::size_t scored = 0;

  explicit SearchState(const core::Scenario& s, const ExactOptions& o)
      : scenario(&s),
        options(&o),
        evaluator(s),
        current(s),
        best(s) {}

  void recurse(std::size_t depth) {
    if (timer.elapsed_seconds() > options->time_limit_s) {
      timed_out = true;
      return;
    }
    // Cost lower bound: committed cost + one instance of each remaining
    // requested microservice (latency term >= 0).
    const auto& constants = scenario->constants();
    double remaining_min = 0.0;
    for (std::size_t d = depth; d < requested.size(); ++d) {
      remaining_min +=
          scenario->catalog().microservice(requested[d]).deploy_cost;
    }
    if (constants.lambda * (current_cost + remaining_min) >=
        best_objective) {
      return;
    }

    if (depth == requested.size()) {
      ++scored;
      if (options->enforce_storage && !current.storage_feasible(*scenario)) {
        return;
      }
      if (current_cost > constants.budget + 1e-9) return;
      const auto eval = evaluator.evaluate(current);
      if (!eval.routable) return;
      if (options->enforce_deadlines && eval.deadline_violations > 0) return;
      if (eval.objective < best_objective) {
        best_objective = eval.objective;
        best = current;
        found = true;
      }
      return;
    }

    // Enumerate non-empty host subsets of this microservice via bitmask.
    const MsId m = requested[depth];
    const int nodes = scenario->num_nodes();
    const double kappa = scenario->catalog().microservice(m).deploy_cost;
    const auto masks = 1ULL << nodes;
    for (std::uint64_t mask = 1; mask < masks; ++mask) {
      if (timed_out) return;
      int count = 0;
      for (int k = 0; k < nodes; ++k) {
        if (mask & (1ULL << k)) {
          current.deploy(m, static_cast<NodeId>(k));
          ++count;
        }
      }
      current_cost += kappa * count;
      recurse(depth + 1);
      current_cost -= kappa * count;
      for (int k = 0; k < nodes; ++k) {
        if (mask & (1ULL << k)) current.remove(m, static_cast<NodeId>(k));
      }
    }
  }
};

}  // namespace

ExactResult solve_exact(const core::Scenario& scenario,
                        const ExactOptions& options) {
  if (scenario.num_nodes() > 16) {
    throw std::invalid_argument(
        "solve_exact: instance too large (reference solver is for tiny "
        "cross-check instances)");
  }
  SearchState state(scenario, options);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    if (!scenario.demand_nodes(m).empty()) state.requested.push_back(m);
  }
  state.recurse(0);

  const ExactStatus status =
      state.found ? (state.timed_out ? ExactStatus::kIncumbent
                                     : ExactStatus::kOptimal)
                  : (state.timed_out ? ExactStatus::kTimedOut
                                     : ExactStatus::kInfeasible);
  // best_objective stays +inf when nothing feasible was found — the old
  // code rewrote it to 0.0, which read as a perfect score downstream.
  return ExactResult{state.found, state.timed_out, status,
                     state.best_objective, state.best, state.scored};
}

}  // namespace socl::ilp
