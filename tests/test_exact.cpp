// Tests for the exact reference solver and cross-checks against heuristics.
#include "ilp/exact_solver.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/socl.h"

namespace socl::ilp {
namespace {

core::ScenarioConfig micro_config(int nodes = 3, int users = 4) {
  core::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  config.use_tiny_catalog = true;
  config.constants.budget = 3000.0;
  return config;
}

TEST(ExactSolver, FindsSolutionOnMicroInstance) {
  const auto scenario = core::make_scenario(micro_config(), 1);
  const auto result = solve_exact(scenario);
  ASSERT_TRUE(result.found);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.status, ExactStatus::kOptimal);
  EXPECT_GT(result.placements_scored, 0u);
  const core::Evaluator evaluator(scenario);
  const auto eval = evaluator.evaluate(result.placement);
  EXPECT_NEAR(eval.objective, result.objective, 1e-9);
  EXPECT_TRUE(eval.feasible());
}

TEST(ExactSolver, LowerBoundsSoclObjective) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto scenario = core::make_scenario(micro_config(), seed);
    const auto exact = solve_exact(scenario);
    ASSERT_TRUE(exact.found) << "seed " << seed;
    const auto socl = core::SoCL().solve(scenario);
    EXPECT_LE(exact.objective, socl.evaluation.objective + 1e-6)
        << "seed " << seed;
  }
}

TEST(ExactSolver, SoclGapIsModest) {
  // The paper reports optimality gaps below ~10%; on micro instances the
  // heuristic should stay within a loose 35% of the true optimum.
  double worst_ratio = 1.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto scenario = core::make_scenario(micro_config(3, 5), seed);
    const auto exact = solve_exact(scenario);
    if (!exact.found) continue;
    const auto socl = core::SoCL().solve(scenario);
    worst_ratio =
        std::max(worst_ratio, socl.evaluation.objective / exact.objective);
  }
  EXPECT_LT(worst_ratio, 1.35);
}

TEST(ExactSolver, RespectsBudget) {
  auto config = micro_config();
  config.constants.budget = 900.0;  // barely one instance of each service
  const auto scenario = core::make_scenario(config, 2);
  const auto result = solve_exact(scenario);
  if (result.found) {
    EXPECT_LE(result.placement.deployment_cost(scenario.catalog()),
              900.0 + 1e-9);
  }
}

TEST(ExactSolver, RejectsLargeInstances) {
  core::ScenarioConfig config;
  config.num_nodes = 20;
  config.num_users = 5;
  const auto scenario = core::make_scenario(config, 3);
  EXPECT_THROW(solve_exact(scenario), std::invalid_argument);
}

TEST(ExactSolver, TimeLimitReported) {
  const auto scenario = core::make_scenario(micro_config(4, 6), 4);
  ExactOptions options;
  options.time_limit_s = 0.0;
  const auto result = solve_exact(scenario, options);
  EXPECT_TRUE(result.timed_out);
  if (!result.found) {
    // Timing out before any leaf is NOT a proof of infeasibility and the
    // objective must not read as a perfect score.
    EXPECT_EQ(result.status, ExactStatus::kTimedOut);
    EXPECT_TRUE(std::isinf(result.objective));
  } else {
    EXPECT_EQ(result.status, ExactStatus::kIncumbent);
  }
}

// Regression: an infeasible instance used to come back with objective 0.0 —
// a perfect score for any caller that forgot to check `found`.
TEST(ExactSolver, InfeasibleReportsInfinityNotZero) {
  auto config = micro_config();
  config.constants.budget = 10.0;  // cheapest instance costs far more
  const auto scenario = core::make_scenario(config, 6);
  const auto result = solve_exact(scenario);
  ASSERT_FALSE(result.found);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.status, ExactStatus::kInfeasible);
  EXPECT_TRUE(std::isinf(result.objective));
  EXPECT_GT(result.objective, 0.0);  // +inf, never a best-possible 0
}

TEST(ExactSolver, DeadlineEnforcementToggle) {
  auto config = micro_config();
  config.requests.deadline_slack = 1.05;  // near-binding deadlines
  const auto scenario = core::make_scenario(config, 5);
  ExactOptions strict, relaxed;
  relaxed.enforce_deadlines = false;
  const auto a = solve_exact(scenario, strict);
  const auto b = solve_exact(scenario, relaxed);
  if (a.found && b.found) {
    // Relaxing a constraint can only improve the optimum.
    EXPECT_LE(b.objective, a.objective + 1e-9);
  }
}

}  // namespace
}  // namespace socl::ilp
