// Tests for the incremental routing engine: scratch-buffer routing must
// match the allocating path, cached scoring must count its savings, the
// candidate fan-out must be bit-identical to the serial loop, and a full
// SoCL solve with parallel scoring must reproduce the serial solve exactly.
#include "core/routing_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/socl.h"
#include "util/thread_pool.h"

namespace socl::core {
namespace {

ScenarioConfig small_config(int nodes = 8, int users = 30) {
  ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  return config;
}

struct Fixture {
  Scenario scenario;
  Partitioning partitioning;
  Preprovisioning pre;

  explicit Fixture(std::uint64_t seed, ScenarioConfig config = small_config())
      : scenario(make_scenario(config, seed)),
        partitioning(initial_partition(scenario, {})),
        pre(preprovision(scenario, partitioning)) {}
};

/// Scores one removal the way the combiner does: through score_candidates,
/// whose serial path leases a slot and merges the counters.
double score_removal(RoutingEngine& engine, MsId m, NodeId k,
                     const Placement& trial) {
  return engine
      .score_candidates(1,
                        [&](std::size_t, RoutingEngine::ScoreContext& ctx) {
                          return engine.objective_without(m, k, trial, ctx);
                        })
      .front();
}

TEST(RoutingEngine, ScratchRouteMatchesAllocatingRoute) {
  Fixture fx(11);
  ChainRouter router(fx.scenario);
  RouteScratch scratch;
  for (const auto& request : fx.scenario.requests()) {
    const auto plain = router.route(request, fx.pre.placement);
    const auto reused = router.route(request, fx.pre.placement, scratch);
    ASSERT_EQ(plain.has_value(), reused.has_value()) << "user " << request.id;
    if (!plain) continue;
    EXPECT_EQ(plain->nodes, reused->nodes) << "user " << request.id;
    EXPECT_NEAR(plain->total(), reused->total(), 1e-12);
  }
}

TEST(RoutingEngine, RouteCostMatchesRouteTotal) {
  Fixture fx(12);
  ChainRouter router(fx.scenario);
  RouteScratch scratch;
  for (const auto& request : fx.scenario.requests()) {
    const auto routed = router.route(request, fx.pre.placement);
    const double cost = router.route_cost(request, fx.pre.placement, scratch);
    if (routed) {
      EXPECT_NEAR(cost, routed->total(), 1e-12) << "user " << request.id;
    } else {
      EXPECT_TRUE(std::isinf(cost)) << "user " << request.id;
    }
  }
}

/// Classes whose representative's chain contains m.
std::int64_t classes_through(const Scenario& scenario, MsId m) {
  std::int64_t count = 0;
  for (const auto& cls : scenario.classes().classes()) {
    const auto& chain = scenario.request(cls.representative).chain;
    if (std::find(chain.begin(), chain.end(), m) != chain.end()) ++count;
  }
  return count;
}

TEST(RoutingEngine, RefreshBumpsEpochAndCountsRefreshes) {
  Fixture fx(13);
  RoutingEngine engine(fx.scenario);
  const auto classes =
      static_cast<std::int64_t>(fx.scenario.classes().num_classes());
  EXPECT_EQ(engine.epoch(), 0u);
  engine.refresh(fx.pre.placement);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.counters().routes_computed, classes);

  // Unchanged placement: nothing to re-route, but the epoch still moves.
  engine.refresh(fx.pre.placement);
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_EQ(engine.counters().routes_computed, classes);

  // One service gains an instance: exactly its classes are re-routed.
  Placement moved = fx.pre.placement;
  const MsId m = 0;
  NodeId free_node = 0;
  while (free_node < fx.scenario.num_nodes() &&
         moved.deployed(m, free_node)) {
    ++free_node;
  }
  ASSERT_LT(free_node, fx.scenario.num_nodes()) << "service 0 is everywhere";
  moved.deploy(m, free_node);
  const std::int64_t through = classes_through(fx.scenario, m);
  ASSERT_GT(through, 0);
  engine.refresh(moved);
  EXPECT_EQ(engine.epoch(), 3u);
  EXPECT_EQ(engine.counters().routes_computed, classes + through);
  EXPECT_EQ(engine.counters().cache_refreshes, 3);
  EXPECT_GT(engine.counters().refresh_seconds, 0.0);
}

// refresh() re-routes only the classes its placement diff touches. After
// any sequence of removals, additions and relocations (several services at
// a time, down to unroutable ones) the cache must be bitwise what a freshly
// built engine's full refresh produces — at one thread and on the fan-out,
// and across a workload mutation in the middle of the walk.
TEST(RoutingEngine, DiffedRefreshMatchesFreshFullRefresh) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Fixture fx(18, small_config(10, 200));
    RoutingEngine incremental(fx.scenario, threads);
    Placement placement = fx.pre.placement;
    incremental.refresh(placement);
    std::mt19937_64 rng(42);
    const int services = fx.scenario.num_microservices();
    const int nodes = fx.scenario.num_nodes();
    for (int step = 0; step < 60; ++step) {
      if (step == 30) {
        fx.scenario.set_requests(
            make_scenario(small_config(10, 200), 97).requests());
      }
      const int moves = 1 + static_cast<int>(rng() % 3);
      for (int move = 0; move < moves; ++move) {
        const auto m = static_cast<MsId>(rng() % services);
        const auto k = static_cast<NodeId>(rng() % nodes);
        const auto to = static_cast<NodeId>(rng() % nodes);
        switch (rng() % 3) {
          case 0:  // remove (possibly the last instance)
            placement.remove(m, k);
            break;
          case 1:  // add
            placement.deploy(m, k);
            break;
          default:  // relocate
            if (placement.deployed(m, k)) {
              placement.remove(m, k);
              placement.deploy(m, to);
            }
        }
      }
      incremental.refresh(placement);
      RoutingEngine fresh(fx.scenario, threads);
      fresh.refresh(placement);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(incremental.cached_latency_sum()),
                std::bit_cast<std::uint64_t>(fresh.cached_latency_sum()))
          << "step " << step;
      for (int user = 0; user < fx.scenario.num_users(); ++user) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(incremental.cached_latency(user)),
                  std::bit_cast<std::uint64_t>(fresh.cached_latency(user)))
            << "step " << step << " user " << user;
        ASSERT_EQ(incremental.cached_route(user), fresh.cached_route(user))
            << "step " << step << " user " << user;
      }
    }
    // The diff saved work: 60 full refreshes would route 60 × classes.
    EXPECT_LT(incremental.counters().routes_computed,
              60 * static_cast<std::int64_t>(
                       fx.scenario.classes().num_classes()));
  }
}

TEST(RoutingEngine, RemovalScoringAvoidsUntouchedUsers) {
  Fixture fx(14);
  RoutingEngine engine(fx.scenario);
  engine.refresh(fx.pre.placement);
  const std::int64_t baseline = engine.counters().routes_computed;
  // Score the removal of every instance of every multi-instance service:
  // only users whose cached route used the removed node may be rerouted.
  std::int64_t scored = 0;
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (fx.pre.placement.instance_count(m) <= 1) continue;
    for (const NodeId k : fx.pre.placement.nodes_of(m)) {
      Placement trial = fx.pre.placement;
      trial.remove(m, k);
      score_removal(engine, m, k, trial);
      ++scored;
    }
  }
  ASSERT_GT(scored, 0) << "scenario lacks a multi-instance service";
  const std::int64_t rerouted = engine.counters().routes_computed - baseline;
  // Pre-provisioning spreads instances, so across all these removals a
  // substantial share of each service's users kept their cached route.
  EXPECT_GT(engine.counters().reroutes_avoided, 0);
  // And rerouting stayed incremental: strictly fewer DP runs than the
  // full-rescore alternative (scored moves × users each).
  EXPECT_LT(rerouted, scored * static_cast<std::int64_t>(
                                   fx.scenario.num_users()));
}

TEST(RoutingEngine, ScoreCandidatesMatchesSerialLoop) {
  Fixture fx(15);
  // Engines only differ in thread count (threads == 1 never fans out);
  // scores must be bit-identical.
  RoutingEngine parallel_engine(fx.scenario, /*threads=*/4);
  RoutingEngine serial_engine(fx.scenario, /*threads=*/1);
  parallel_engine.refresh(fx.pre.placement);
  serial_engine.refresh(fx.pre.placement);

  std::vector<std::pair<MsId, NodeId>> candidates;
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (fx.pre.placement.instance_count(m) <= 1) continue;
    for (const NodeId k : fx.pre.placement.nodes_of(m)) {
      candidates.emplace_back(m, k);
    }
  }
  ASSERT_GE(candidates.size(), 8u) << "need enough candidates to fan out";

  const auto score_with = [&](RoutingEngine& engine) {
    return engine.score_candidates(
        candidates.size(),
        [&](std::size_t i, RoutingEngine::ScoreContext& ctx) {
          const auto [m, k] = candidates[i];
          Placement trial = fx.pre.placement;
          trial.remove(m, k);
          return engine.objective_without(m, k, trial, ctx);
        });
  };
  const auto par = score_with(parallel_engine);
  const auto ser = score_with(serial_engine);
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i], ser[i]) << "candidate " << i;  // bit-identical
  }
  // Integer counters are summed across workers, so totals agree too.
  EXPECT_EQ(parallel_engine.counters().candidates_scored,
            serial_engine.counters().candidates_scored);
  EXPECT_EQ(parallel_engine.counters().routes_computed,
            serial_engine.counters().routes_computed);
  EXPECT_EQ(parallel_engine.counters().reroutes_avoided,
            serial_engine.counters().reroutes_avoided);
}

TEST(RoutingEngine, FullObjectiveMatchesRefreshSum) {
  Fixture fx(16);
  RoutingEngine engine(fx.scenario);
  engine.refresh(fx.pre.placement);
  const double cached =
      engine.combine(fx.pre.placement.deployment_cost(fx.scenario.catalog()),
                     engine.cached_latency_sum());
  EXPECT_NEAR(engine.full_objective(fx.pre.placement), cached, 1e-9);
}

// Regression: the per-microservice user index was built once at
// construction, so mutating the workload (set_requests, mobility
// reattachment) left the engine scoring against chains that no longer
// existed. refresh() must re-derive the index when the scenario's workload
// epoch has moved — an engine that lived through the mutation has to score
// exactly like one constructed from scratch afterwards.
TEST(RoutingEngine, WorkloadMutationRescoresLikeFreshEngine) {
  Fixture fx(17);
  RoutingEngine survivor(fx.scenario);
  survivor.refresh(fx.pre.placement);
  const double before = survivor.cached_latency_sum();

  // Swap in a regenerated workload: different chains, attach points, and
  // demands over the same catalog and substrate.
  const auto donor = make_scenario(small_config(), 99);
  const auto old_epoch = fx.scenario.workload_epoch();
  fx.scenario.set_requests(donor.requests());
  EXPECT_GT(fx.scenario.workload_epoch(), old_epoch);

  survivor.refresh(fx.pre.placement);
  RoutingEngine fresh(fx.scenario);
  fresh.refresh(fx.pre.placement);

  EXPECT_EQ(survivor.cached_latency_sum(), fresh.cached_latency_sum());
  EXPECT_NE(survivor.cached_latency_sum(), before)
      << "mutated workload should not score like the old one";
  EXPECT_EQ(survivor.full_objective(fx.pre.placement),
            fresh.full_objective(fx.pre.placement));

  // Rescore every removal candidate: bit-identical to the fresh engine, or
  // the survivor is still consulting the stale index.
  int scored = 0;
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (fx.pre.placement.instance_count(m) <= 1) continue;
    for (const NodeId k : fx.pre.placement.nodes_of(m)) {
      Placement trial = fx.pre.placement;
      trial.remove(m, k);
      EXPECT_EQ(score_removal(survivor, m, k, trial),
                score_removal(fresh, m, k, trial))
          << "m=" << m << " k=" << k;
      EXPECT_EQ(survivor.objective_with_change(trial, m),
                fresh.objective_with_change(trial, m))
          << "m=" << m << " k=" << k;
      ++scored;
    }
  }
  ASSERT_GT(scored, 0) << "scenario lacks a multi-instance service";
}

// The engine sizes its per-lane scratch arenas once, to its threads clamped
// to the shared pool's width (0 = the whole pool), and the fan-out asserts
// lane < arenas; this must hold for every threads setting, a width above
// the pool's included.
TEST(RoutingEngine, PoolSizingRobustForAllThreadSettings) {
  const std::size_t width = util::shared_pool().size();
  for (const int threads : {0, 1, 2, 7}) {
    Fixture fx(18);
    RoutingEngine engine(fx.scenario, threads);
    const auto cap = static_cast<std::size_t>(threads);
    EXPECT_EQ(engine.lanes(), cap == 0 ? width : std::min(width, cap))
        << "threads=" << threads;
    engine.refresh(fx.pre.placement);
    const double expected = engine.full_objective(fx.pre.placement);
    const auto scores = engine.score_candidates(
        32, [&](std::size_t, RoutingEngine::ScoreContext& ctx) {
          return engine.full_objective(fx.pre.placement, ctx);
        });
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], expected) << "threads=" << threads << " i=" << i;
    }
  }
}

// Regression: the serial entry points (objective_with_change /
// full_objective and score_candidates' inline path) wrote through the
// engine's slot-0 scratch and shared counter block unconditionally, racing
// any concurrently running score_candidates fan-out that was using the same
// slot. They now check out dedicated serial slots under a mutex, so
// hammering them from another thread during a fan-out must produce
// bit-identical values throughout (the tsan CI job runs this test under
// ThreadSanitizer).
TEST(RoutingEngine, ConvenienceOverloadsSafeDuringScoreCandidates) {
  Fixture fx(19);
  RoutingEngine engine(fx.scenario, /*threads=*/4);
  engine.refresh(fx.pre.placement);
  const double expected_full = engine.full_objective(fx.pre.placement);

  std::vector<std::pair<MsId, NodeId>> candidates;
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (fx.pre.placement.instance_count(m) <= 1) continue;
    for (const NodeId k : fx.pre.placement.nodes_of(m)) {
      candidates.emplace_back(m, k);
    }
  }
  ASSERT_GE(candidates.size(), 8u) << "need enough candidates to fan out";
  const auto score_once = [&] {
    return engine.score_candidates(
        candidates.size(),
        [&](std::size_t i, RoutingEngine::ScoreContext& ctx) {
          const auto [m, k] = candidates[i];
          Placement trial = fx.pre.placement;
          trial.remove(m, k);
          return engine.objective_without(m, k, trial, ctx);
        });
  };
  const auto baseline = score_once();

  std::atomic<bool> stop{false};
  std::vector<double> hammered;
  std::thread hammer([&] {
    // One pass even if the scoring rounds end before this thread runs.
    do {
      hammered.push_back(engine.full_objective(fx.pre.placement));
      const auto [m, k] = candidates.front();
      Placement trial = fx.pre.placement;
      trial.remove(m, k);
      hammered.push_back(score_removal(engine, m, k, trial));
      hammered.push_back(engine.objective_with_change(trial, m));
    } while (!stop.load(std::memory_order_relaxed));
  });
  for (int round = 0; round < 20; ++round) {
    const auto scores = score_once();
    ASSERT_EQ(scores.size(), baseline.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(scores[i], baseline[i]) << "round " << round << " i=" << i;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  hammer.join();
  ASSERT_GE(hammered.size(), 3u);
  for (std::size_t i = 0; i + 2 < hammered.size(); i += 3) {
    EXPECT_EQ(hammered[i], expected_full) << "iteration " << i / 3;
    EXPECT_EQ(hammered[i + 1], baseline.front()) << "iteration " << i / 3;
  }
}

// The headline determinism guarantee: a full SoCL solve at threads 4
// (parallel cached scoring, concurrent dense basin) returns the exact
// placement and objective of the threads-1 run under a fixed seed.
class SolveDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolveDeterminism, ParallelSolveIdenticalToSerial) {
  const auto scenario = make_scenario(small_config(10, 40), GetParam());

  SoCLParams parallel_params;
  parallel_params.combination.threads = 4;
  SoCLParams serial_params;
  serial_params.combination.threads = 1;

  const Solution par = SoCL(parallel_params).solve(scenario);
  const Solution ser = SoCL(serial_params).solve(scenario);

  EXPECT_TRUE(par.placement == ser.placement);
  EXPECT_EQ(par.evaluation.objective, ser.evaluation.objective);
  EXPECT_EQ(par.evaluation.total_latency, ser.evaluation.total_latency);
  EXPECT_EQ(par.assignment.has_value(), ser.assignment.has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveDeterminism,
                         ::testing::Values(1u, 7u, 42u));

}  // namespace
}  // namespace socl::core
