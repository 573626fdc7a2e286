// Geo-sharded decomposition solver (DESIGN.md §4j): dual-ascent arithmetic
// on a convex toy, quota-negotiation feasibility, shard-plan extraction, the
// 50-seed single-shard identity lane (a one-shard ShardedSoCL must be
// bit-identical to the unsharded SoCL — objectives, placements, and every
// user route), multi-metro coordination under the shared Eq. (5) budget, and
// the per-shard incremental serving rung.
#include "shard/sharded_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/socl.h"
#include "net/multi_metro.h"
#include "obs/recorder.h"
#include "validate/validator.h"
#include "workload/request_gen.h"

namespace socl::shard {
namespace {

/// Convex toy spend model for the ascent lane: each shard's spend decays as
/// a_s / (1 + μ), so aggregate spend(μ) = Σ a_s / (1 + μ) is convex and
/// strictly decreasing with the unique clearing price μ* = Σ a_s / K − 1.
double toy_spend(const std::vector<double>& a, double price) {
  double spend = 0.0;
  for (const double demand : a) spend += demand / (1.0 + price);
  return spend;
}

TEST(DualState, ConvergesToClearingPriceOnConvexToy) {
  const std::vector<double> demands = {800.0, 600.0, 400.0};
  const double budget = 1200.0;
  const double clearing = (800.0 + 600.0 + 400.0) / budget - 1.0;  // 0.5

  DualState dual;
  double early_error = 0.0;
  double price = 0.0;
  for (int t = 0; t < 400; ++t) {
    price = dual.update(toy_spend(demands, price), budget);
    if (t == 4) early_error = std::abs(price - clearing);
  }
  const double late_error = std::abs(price - clearing);
  EXPECT_NEAR(price, clearing, 0.02);
  // The diminishing-step schedule contracts the error over time.
  EXPECT_LT(late_error, early_error);
  // ... and the cleared spend meets the budget.
  EXPECT_NEAR(toy_spend(demands, price), budget, 0.05 * budget);
}

TEST(DualState, StaysAtZeroWhenBudgetIsSlack) {
  const std::vector<double> demands = {100.0, 50.0};
  DualState dual;
  double price = 0.0;
  for (int t = 0; t < 20; ++t) {
    price = dual.update(toy_spend(demands, price), /*budget=*/1000.0);
    EXPECT_DOUBLE_EQ(price, 0.0);  // projection onto μ >= 0
  }
}

TEST(DualState, StepSizeDiminishes) {
  DualState a;
  a.update(/*spend=*/2000.0, /*budget=*/1000.0);
  const double first = a.price;
  const double second = a.update(2000.0, 1000.0) - first;
  EXPECT_GT(first, 0.0);
  EXPECT_GT(second, 0.0);
  EXPECT_LT(second, first);  // step_t = initial_step / (1 + t)
}

TEST(NegotiateQuotas, FeasibleSplitRespectsFloorsAndBudget) {
  const std::vector<double> floors = {100.0, 200.0, 50.0};
  const std::vector<double> demands = {400.0, 250.0, 50.0};
  const auto quotas = negotiate_quotas(1000.0, floors, demands);

  ASSERT_EQ(quotas.size(), 3u);
  double total = 0.0;
  for (std::size_t s = 0; s < quotas.size(); ++s) {
    EXPECT_GE(quotas[s], floors[s]);
    total += quotas[s];
  }
  EXPECT_NEAR(total, 1000.0, 1e-9);
  // Residual 650 splits by marginal demand (300 : 50 : 0).
  EXPECT_NEAR(quotas[0], 100.0 + 650.0 * 300.0 / 350.0, 1e-9);
  EXPECT_NEAR(quotas[1], 200.0 + 650.0 * 50.0 / 350.0, 1e-9);
  EXPECT_NEAR(quotas[2], 50.0, 1e-9);
}

TEST(NegotiateQuotas, InfeasibleFloorsScaleDownProportionally) {
  const std::vector<double> floors = {600.0, 300.0, 100.0};
  const std::vector<double> demands = {900.0, 400.0, 100.0};
  const auto quotas = negotiate_quotas(500.0, floors, demands);
  double total = 0.0;
  for (const double quota : quotas) total += quota;
  EXPECT_NEAR(total, 500.0, 1e-9);
  EXPECT_NEAR(quotas[0], 300.0, 1e-9);
  EXPECT_NEAR(quotas[1], 150.0, 1e-9);
  EXPECT_NEAR(quotas[2], 50.0, 1e-9);
}

TEST(NegotiateQuotas, ZeroMarginalDemandFallsBackToFloorShares) {
  const std::vector<double> floors = {300.0, 100.0};
  const std::vector<double> demands = {300.0, 100.0};  // nobody above floor
  const auto quotas = negotiate_quotas(800.0, floors, demands);
  EXPECT_NEAR(quotas[0] + quotas[1], 800.0, 1e-9);
  EXPECT_NEAR(quotas[0], 300.0 + 400.0 * 0.75, 1e-9);
}

core::ScenarioConfig tiny_config(int nodes, int users) {
  core::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  config.use_tiny_catalog = true;
  return config;
}

// The 50-seed single-shard identity lane: solving through the decomposition
// with the trivial one-shard plan must be bit-identical to the unsharded
// solver — the extraction (induced network, localized requests) and the
// μ = 0 short-circuit are both lossless by construction.
TEST(ShardedSoCL, SingleShardBitIdenticalAcrossFiftySeeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const int nodes = 5 + static_cast<int>(seed % 4);
    const int users = 10 + static_cast<int>(seed % 11);
    const core::Scenario scenario =
        core::make_scenario(tiny_config(nodes, users), seed);

    const core::Solution unsharded = core::SoCL().solve(scenario);
    ShardedSoCL solver(scenario, single_shard_plan(scenario));
    const ShardedSolution sharded = solver.solve();

    ASSERT_EQ(sharded.shards, 1) << "seed " << seed;
    EXPECT_EQ(sharded.evaluation.objective, unsharded.evaluation.objective)
        << "seed " << seed;
    EXPECT_EQ(sharded.evaluation.total_latency,
              unsharded.evaluation.total_latency)
        << "seed " << seed;
    EXPECT_EQ(sharded.evaluation.deployment_cost,
              unsharded.evaluation.deployment_cost)
        << "seed " << seed;
    EXPECT_TRUE(sharded.placement == unsharded.placement) << "seed " << seed;
    ASSERT_EQ(sharded.assignment.has_value(), unsharded.assignment.has_value())
        << "seed " << seed;
    if (sharded.assignment) {
      for (int h = 0; h < scenario.num_users(); ++h) {
        const auto a = sharded.assignment->user_route(h);
        const auto b = unsharded.assignment->user_route(h);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "seed " << seed << " user " << h;
      }
    }
    EXPECT_EQ(sharded.duality_gap, 0.0) << "seed " << seed;
  }
}

/// Multi-metro scenario (tiny catalog unless given); the returned
/// topology's membership map drives the shard plan.
struct MetroFixture {
  net::MultiMetroTopology topo;
  const workload::AppCatalog* catalog;
  std::vector<workload::UserRequest> requests;

  explicit MetroFixture(
      int metros, int nodes_per_metro, int users, std::uint64_t seed,
      const workload::AppCatalog& app = workload::tiny_catalog())
      : catalog(&app) {
    net::MultiMetroConfig config;
    config.metros = metros;
    config.metro.num_nodes = nodes_per_metro;
    topo = net::make_multi_metro(config, seed);
    workload::RequestGenConfig gen;
    gen.num_users = users;
    requests = workload::generate_requests(topo.network, *catalog, gen, seed);
  }

  core::Scenario scenario(double budget) const {
    core::ProblemConstants constants;
    constants.budget = budget;
    return core::Scenario(topo.network, *catalog, requests, constants);
  }
};

TEST(ShardPlan, MetroAndComponentDerivationsAgree) {
  const MetroFixture fixture(3, 5, 24, /*seed=*/9);
  const ShardPlan from_metros =
      plan_from_metros(fixture.topo.metro_of, fixture.topo.metros);
  const ShardPlan from_components = plan_from_components(
      fixture.topo.network, fixture.topo.backhaul_links);
  ASSERT_EQ(from_components.num_shards(), from_metros.num_shards());
  EXPECT_EQ(from_components.shard_of, from_metros.shard_of);
  EXPECT_EQ(from_components.nodes, from_metros.nodes);
}

TEST(ShardedSoCL, MultiMetroSolveRespectsGlobalBudget) {
  const MetroFixture fixture(2, 6, 40, /*seed=*/5);
  const core::Scenario scenario = fixture.scenario(/*budget=*/50000.0);
  const ShardPlan plan =
      plan_from_metros(fixture.topo.metro_of, fixture.topo.metros);

  obs::Recorder recorder;
  ShardedParams params;
  params.sink = &recorder;
  ShardedSoCL solver(scenario, plan, params);
  const ShardedSolution solution = solver.solve();

  EXPECT_EQ(solution.shards, 2);
  EXPECT_TRUE(solution.evaluation.routable);
  EXPECT_LE(solution.spend, solution.budget + 1e-9);
  ASSERT_TRUE(solution.assignment.has_value());

  const validate::Report report =
      validate::SolutionValidator(scenario).validate(solution.placement,
                                                     *solution.assignment);
  EXPECT_EQ(report.count(validate::Constraint::kBudget), 0)
      << report.summary();

  const auto snapshot = recorder.metrics().snapshot();
  for (const char* gauge :
       {"socl.shard.shards", "socl.shard.iterations", "socl.shard.duality_gap",
        "socl.shard.price", "socl.shard.spend", "socl.shard.budget"}) {
    EXPECT_NE(snapshot.find(gauge), nullptr) << gauge;
  }
  EXPECT_EQ(solution.price_trajectory.size(), solution.spend_trajectory.size());
  EXPECT_EQ(static_cast<int>(solution.price_trajectory.size()),
            solution.iterations);

  // The iterate metrics see every per-shard solve of the search (both
  // shards have users); shard_solve_s sees only the accepted iterate's.
  ASSERT_FALSE(solution.used_quota_fallback);
  const auto* iterate_solves = snapshot.find("socl.shard.iterate_solves");
  const auto* iterate_solve_s = snapshot.find("socl.shard.iterate_solve_s");
  const auto* shard_solve_s = snapshot.find("socl.shard.shard_solve_s");
  ASSERT_NE(iterate_solves, nullptr);
  ASSERT_NE(iterate_solve_s, nullptr);
  ASSERT_NE(shard_solve_s, nullptr);
  EXPECT_EQ(iterate_solves->counter, 2 * solution.iterations);
  EXPECT_EQ(iterate_solve_s->histogram.count, iterate_solves->counter);
  EXPECT_EQ(shard_solve_s->histogram.count, 2);
}

// A budget far below the unconstrained demand but above the floors: the
// priced iterations cannot land feasible inside one iteration, so the quota
// fallback must engage — and its negotiated quotas must keep the recombined
// solution within the global budget.
TEST(ShardedSoCL, QuotaFallbackStaysBudgetFeasible) {
  const MetroFixture fixture(2, 6, 40, /*seed=*/13);
  // Probe the floors first (extraction is cheap) to pick a tight budget.
  const core::Scenario probe = fixture.scenario(1.0);
  const ShardPlan plan =
      plan_from_metros(fixture.topo.metro_of, fixture.topo.metros);
  double floor_sum = 0.0;
  for (const ShardProblem& shard : extract_shards(probe, plan)) {
    floor_sum += shard.min_feasible_spend();
  }
  ASSERT_GT(floor_sum, 0.0);

  const core::Scenario scenario = fixture.scenario(1.10 * floor_sum);
  ShardedParams params;
  params.max_iterations = 1;  // force the fallback on any infeasible start
  ShardedSoCL solver(scenario, plan, params);
  const ShardedSolution solution = solver.solve();

  EXPECT_LE(solution.spend, solution.budget + 1e-9);
  if (solution.used_quota_fallback) {
    EXPECT_TRUE(solution.evaluation.routable);
    EXPECT_TRUE(solution.evaluation.within_budget);
  }
}

TEST(ShardedSoCL, StepResolvesOnlyMovedShards) {
  const MetroFixture fixture(2, 6, 30, /*seed=*/21);
  const core::Scenario scenario = fixture.scenario(/*budget=*/50000.0);
  const ShardPlan plan =
      plan_from_metros(fixture.topo.metro_of, fixture.topo.metros);
  ShardedParams params;
  params.reprice_threshold = 0.9;  // keep the lane on the incremental path
  ShardedSoCL solver(scenario, plan, params);

  // First step runs the implicit full solve.
  const auto first = solver.step(fixture.requests);
  EXPECT_TRUE(first.repriced);
  EXPECT_EQ(first.shards_resolved, 2);

  // An identical workload moves no shard epoch: nothing re-solves.
  const auto idle = solver.step(fixture.requests);
  EXPECT_FALSE(idle.repriced);
  EXPECT_EQ(idle.shards_resolved, 0);
  EXPECT_EQ(idle.solution.evaluation.objective,
            first.solution.evaluation.objective);

  // Move one user inside metro 0 (attach to another node of the same
  // metro): only that shard's epoch moves, and the re-solve is local.
  auto moved = fixture.requests;
  const int metro0_nodes = fixture.topo.nodes_per_metro();
  for (auto& request : moved) {
    if (request.attach_node < metro0_nodes) {
      request.attach_node = (request.attach_node + 1) % metro0_nodes;
      break;
    }
  }
  const auto local = solver.step(moved);
  EXPECT_FALSE(local.repriced);
  EXPECT_EQ(local.shards_resolved, 1);
  EXPECT_TRUE(local.solution.evaluation.routable);
}

TEST(MultiMetro, TopologyHasOneGatewayPerMetroAndContiguousIds) {
  net::MultiMetroConfig config;
  config.metros = 4;
  config.metro.num_nodes = 5;
  const net::MultiMetroTopology topo = net::make_multi_metro(config, 3);

  ASSERT_EQ(topo.metros, 4);
  ASSERT_EQ(static_cast<int>(topo.gateways.size()), 4);
  ASSERT_EQ(static_cast<int>(topo.metro_of.size()), 20);
  for (std::size_t k = 0; k < topo.metro_of.size(); ++k) {
    EXPECT_EQ(topo.metro_of[k], static_cast<int>(k) / 5);  // metro-major ids
  }
  // Every backhaul link joins two gateways of different metros, and the
  // ring touches every metro.
  std::vector<bool> touched(4, false);
  for (const net::LinkId link : topo.backhaul_links) {
    const auto& edge = topo.network.link(link);
    EXPECT_NE(topo.metro_of[static_cast<std::size_t>(edge.a)],
              topo.metro_of[static_cast<std::size_t>(edge.b)]);
    touched[static_cast<std::size_t>(
        topo.metro_of[static_cast<std::size_t>(edge.a)])] = true;
    touched[static_cast<std::size_t>(
        topo.metro_of[static_cast<std::size_t>(edge.b)])] = true;
    EXPECT_DOUBLE_EQ(edge.rate_gbps, config.backhaul.rate_gbps);
  }
  for (const bool metro_touched : touched) EXPECT_TRUE(metro_touched);
}

TEST(DualState, ResetRestartsTheDiminishingSchedule) {
  DualState dual;
  dual.initial_step = 0.6;
  for (int t = 0; t < 20; ++t) dual.update(2000.0, 1000.0);
  const double before = dual.price;
  // Stale counter: the step on a unit subgradient has shrunk to
  // initial_step / (1 + 21) — exactly the mid-day re-price stall the
  // geometric floor papers over at solve time.
  const double stale_step = dual.update(2000.0, 1000.0) - before;
  EXPECT_LT(stale_step, 0.05);

  dual.reset();
  EXPECT_EQ(dual.iteration, 0);
  EXPECT_DOUBLE_EQ(dual.price, 0.0);
  // Fresh schedule: the first step is the full initial_step again.
  EXPECT_DOUBLE_EQ(dual.update(2000.0, 1000.0), 0.6);

  // Resuming at a frozen price keeps the price but restarts the counter.
  dual.reset(2.5);
  EXPECT_DOUBLE_EQ(dual.price, 2.5);
  EXPECT_EQ(dual.iteration, 0);
}

TEST(ShardProblem, MembershipSwapFlagsBothShardsMoved) {
  // Two users sharing one demand tuple, attached in different metros. A
  // cross-metro swap leaves each shard's *local* workload positionally
  // identical (dense local ids, same tuple, same local attach), so the
  // scenario epoch cannot see it — only the dense remap does. Both shards
  // must still flag as moved, or the merged assignment would keep billing
  // each user to its old shard.
  const MetroFixture fixture(2, 5, 4, /*seed=*/33);
  auto requests = fixture.requests;
  requests.resize(2);
  requests[0].id = 0;
  requests[0].attach_node = 0;  // metro 0
  requests[1] = requests[0];
  requests[1].id = 1;
  requests[1].attach_node =
      static_cast<net::NodeId>(fixture.topo.nodes_per_metro());  // metro 1

  core::ProblemConstants constants;
  constants.budget = 6000.0;
  const core::Scenario scenario(fixture.topo.network, workload::tiny_catalog(),
                                requests, constants);
  const ShardPlan plan =
      plan_from_metros(fixture.topo.metro_of, fixture.topo.metros);
  auto shards = extract_shards(scenario, plan);
  ASSERT_EQ(shards[0].num_users(), 1);
  ASSERT_EQ(shards[1].num_users(), 1);

  std::swap(requests[0].attach_node, requests[1].attach_node);
  EXPECT_TRUE(shards[0].set_requests(requests));
  EXPECT_TRUE(shards[1].set_requests(requests));
  EXPECT_EQ(shards[0].to_global_user(0), 1);
  EXPECT_EQ(shards[1].to_global_user(0), 0);

  // Feeding the identical workload again moves nothing.
  EXPECT_FALSE(shards[0].set_requests(requests));
  EXPECT_FALSE(shards[1].set_requests(requests));
}

TEST(ShardedSoCL, QuietAndZeroBudgetSlotsNeverRepriceOrNaN) {
  const MetroFixture fixture(2, 5, 8, /*seed=*/27);
  const ShardPlan plan =
      plan_from_metros(fixture.topo.metro_of, fixture.topo.metros);

  // Empty workload: the certificate must be exactly 0, not 0/0 noise, and
  // a quiet slot (nothing deployed, nothing priced in) must stay on the
  // incremental path instead of forcing a spurious global re-price.
  core::ProblemConstants constants;
  constants.budget = 6000.0;
  const core::Scenario empty_scenario(fixture.topo.network,
                                      workload::tiny_catalog(), {}, constants);
  ShardedSoCL solver(empty_scenario, plan);
  const auto first = solver.step({});
  EXPECT_TRUE(first.repriced);  // the implicit first solve
  EXPECT_FALSE(std::isnan(first.solution.duality_gap));
  EXPECT_DOUBLE_EQ(first.solution.duality_gap, 0.0);
  EXPECT_TRUE(first.solution.converged);
  const auto quiet = solver.step({});
  EXPECT_FALSE(quiet.repriced);
  EXPECT_EQ(quiet.shards_resolved, 0);

  // K == 0: the drift test normalises by the budget — it must neither
  // divide by zero nor re-price a slot the price cannot influence.
  core::ProblemConstants zero = constants;
  zero.budget = 0.0;
  const core::Scenario zero_scenario(fixture.topo.network,
                                     workload::tiny_catalog(), {}, zero);
  ShardedSoCL zero_solver(zero_scenario, plan);
  const auto zero_first = zero_solver.step({});
  EXPECT_FALSE(std::isnan(zero_first.solution.duality_gap));
  const auto zero_quiet = zero_solver.step({});
  EXPECT_FALSE(zero_quiet.repriced);
  EXPECT_EQ(zero_quiet.shards_resolved, 0);
}

TEST(Scenario, SetConstantsIsEpochNeutral) {
  core::Scenario scenario = core::make_scenario(tiny_config(6, 12), 4);
  const std::uint64_t epoch = scenario.workload_epoch();
  core::ProblemConstants constants = scenario.constants();
  constants.lambda = 0.9;
  constants.budget = 123.0;
  scenario.set_constants(constants);
  EXPECT_EQ(scenario.workload_epoch(), epoch);
  EXPECT_DOUBLE_EQ(scenario.constants().lambda, 0.9);
  EXPECT_DOUBLE_EQ(scenario.constants().budget, 123.0);
}

std::vector<std::uint64_t> bit_pattern(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (const double value : values) {
    bits.push_back(std::bit_cast<std::uint64_t>(value));
  }
  return bits;
}

// The shard fan-out, each solve's scoring pool and its dense-basin helper
// thread interleave differently at every (threads, shard_threads) pair; the
// price search must not notice.
TEST(ShardedSoCL, PriceSearchIdenticalAcrossThreadCounts) {
  const MetroFixture fixture(3, 6, 120, /*seed=*/17,
                             workload::eshop_catalog());
  const core::Scenario scenario = fixture.scenario(/*budget=*/11800.0);
  const ShardPlan plan =
      plan_from_metros(fixture.topo.metro_of, fixture.topo.metros);

  std::optional<ShardedSolution> reference;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ShardedParams params;
    params.threads = threads;
    params.shard_threads = threads;
    ShardedSoCL solver(scenario, plan, params);
    ShardedSolution solution = solver.solve();
    ASSERT_TRUE(solution.assignment.has_value());
    if (!reference) {
      // The budget binds: the search must bisect a priced bracket.
      EXPECT_GT(solution.iterations, 2);
      EXPECT_GT(solution.price, 0.0);
      reference = std::move(solution);
      continue;
    }
    EXPECT_EQ(bit_pattern(solution.price_trajectory),
              bit_pattern(reference->price_trajectory));
    EXPECT_EQ(bit_pattern(solution.spend_trajectory),
              bit_pattern(reference->spend_trajectory));
    EXPECT_EQ(solution.iterations, reference->iterations);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solution.duality_gap),
              std::bit_cast<std::uint64_t>(reference->duality_gap));
    EXPECT_TRUE(solution.placement == reference->placement);
    for (int h = 0; h < scenario.num_users(); ++h) {
      const auto a = solution.assignment->user_route(h);
      const auto b = reference->assignment->user_route(h);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "user " << h;
    }
  }
}

}  // namespace
}  // namespace socl::shard
