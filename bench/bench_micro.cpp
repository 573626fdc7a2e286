// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// routing DP, virtual-link construction, latency-loss updates, the simplex
// engine, and the end-to-end SoCL solve.
#include <benchmark/benchmark.h>

#include <limits>

#include "bench_common.h"
#include "core/fuzzy_ahp.h"
#include "core/routing_engine.h"
#include "ilp/socl_ilp.h"

namespace {

using namespace socl;

const core::Scenario& shared_scenario() {
  static const core::Scenario scenario =
      core::make_scenario(bench::paper_config(10, 60), 5);
  return scenario;
}

void BM_ShortestPathsBuild(benchmark::State& state) {
  const auto network =
      net::make_topology(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    net::ShortestPaths paths(network);
    benchmark::DoNotOptimize(paths.hops(0, 1));
  }
}
BENCHMARK(BM_ShortestPathsBuild)->Arg(10)->Arg(20)->Arg(30);

void BM_VirtualLinksBuild(benchmark::State& state) {
  const auto network =
      net::make_topology(static_cast<int>(state.range(0)), 3);
  const net::ShortestPaths paths(network);
  for (auto _ : state) {
    net::VirtualLinks vlinks(network, paths);
    benchmark::DoNotOptimize(vlinks.rate(0, 1));
  }
}
BENCHMARK(BM_VirtualLinksBuild)->Arg(10)->Arg(30);

void BM_ChainRouteSingleUser(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  core::Placement placement(scenario);
  for (core::MsId m = 0; m < scenario.num_microservices(); ++m) {
    for (const core::NodeId k : scenario.demand_nodes(m)) {
      placement.deploy(m, k);
    }
  }
  const core::ChainRouter router(scenario);
  const auto& request = scenario.requests().front();
  for (auto _ : state) {
    auto route = router.route(request, placement);
    benchmark::DoNotOptimize(route);
  }
}
BENCHMARK(BM_ChainRouteSingleUser);

void BM_ChainRouteScratchReuse(benchmark::State& state) {
  // The scoring kernel: route_cost with a warm scratch — no back-pointers,
  // no reconstruction, no allocations. Compare against BM_ChainRouteSingleUser.
  const auto& scenario = shared_scenario();
  core::Placement placement(scenario);
  for (core::MsId m = 0; m < scenario.num_microservices(); ++m) {
    for (const core::NodeId k : scenario.demand_nodes(m)) {
      placement.deploy(m, k);
    }
  }
  const core::ChainRouter router(scenario);
  const auto& request = scenario.requests().front();
  core::RouteScratch scratch;
  for (auto _ : state) {
    double cost = router.route_cost(request, placement, scratch);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_ChainRouteScratchReuse);

// ---- Serial-stage candidate scan: exact full rescore vs the incremental
// routing engine. Both score the identical removal-candidate list with the
// exact objective; the engine refreshes its per-class route cache once and
// then reroutes only the classes a removal can affect. The routing counters
// attached to each benchmark show the DP work actually performed. ----

struct ScanSetup {
  core::Partitioning partitioning;
  core::Preprovisioning pre;
  std::vector<core::LatencyLoss> losses;

  ScanSetup()
      : partitioning(core::initial_partition(shared_scenario(), {})),
        pre(core::preprovision(shared_scenario(), partitioning)) {
    const core::Combiner combiner(shared_scenario(), partitioning, {});
    losses = combiner.latency_losses(pre.placement);
  }
};

const ScanSetup& scan_setup() {
  static const ScanSetup setup;
  return setup;
}

void attach_routing_counters(benchmark::State& state,
                             const core::RoutingCounters& counters) {
  using benchmark::Counter;
  state.counters["candidates"] =
      Counter(static_cast<double>(counters.candidates_scored),
              Counter::kAvgIterations);
  state.counters["routes"] = Counter(
      static_cast<double>(counters.routes_computed), Counter::kAvgIterations);
  state.counters["cache_hits"] = Counter(
      static_cast<double>(counters.cache_hits), Counter::kAvgIterations);
  state.counters["avoided"] = Counter(
      static_cast<double>(counters.reroutes_avoided), Counter::kAvgIterations);
}

void BM_CandidateScanFullRescore(benchmark::State& state) {
  const auto& setup = scan_setup();
  core::RoutingEngine engine(shared_scenario(), /*threads=*/1);
  for (auto _ : state) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& loss : setup.losses) {
      core::Placement trial = setup.pre.placement;
      trial.remove(loss.service, loss.node);
      best = std::min(best, engine.full_objective(trial));
    }
    benchmark::DoNotOptimize(best);
  }
  attach_routing_counters(state, engine.counters());
}
BENCHMARK(BM_CandidateScanFullRescore)->Unit(benchmark::kMillisecond);

void BM_CandidateScanEngineCached(benchmark::State& state) {
  const auto& setup = scan_setup();
  core::RoutingEngine engine(shared_scenario());
  engine.refresh(setup.pre.placement);
  engine.reset_counters();
  for (auto _ : state) {
    const auto scores = engine.score_candidates(
        setup.losses.size(),
        [&](std::size_t i, core::RoutingEngine::ScoreContext& ctx) {
          const auto& loss = setup.losses[i];
          core::Placement trial = setup.pre.placement;
          trial.remove(loss.service, loss.node);
          return engine.objective_without(loss.service, loss.node, trial, ctx);
        });
    benchmark::DoNotOptimize(scores);
  }
  attach_routing_counters(state, engine.counters());
}
BENCHMARK(BM_CandidateScanEngineCached)->Unit(benchmark::kMillisecond);

void BM_RouteCacheRefresh(benchmark::State& state) {
  const auto& setup = scan_setup();
  core::RoutingEngine engine(shared_scenario());
  for (auto _ : state) {
    engine.refresh(setup.pre.placement);
    benchmark::DoNotOptimize(engine.cached_latency_sum());
  }
}
BENCHMARK(BM_RouteCacheRefresh)->Unit(benchmark::kMillisecond);

void BM_LatencyLossList(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto partitioning = core::initial_partition(scenario, {});
  const auto pre = core::preprovision(scenario, partitioning);
  const core::Combiner combiner(scenario, partitioning, {});
  for (auto _ : state) {
    auto losses = combiner.latency_losses(pre.placement);
    benchmark::DoNotOptimize(losses);
  }
}
BENCHMARK(BM_LatencyLossList);

// ---- Combiner::polish in the estimate regime (classes · nodes³ · 5 > 5e7,
// i.e. more than 2441 classes at 16 nodes): every candidate move is scored
// through the incremental connection-rule estimate cache. ----

struct EstimatePolishSetup {
  core::Scenario scenario;
  core::Partitioning partitioning;
  core::Placement start;

  EstimatePolishSetup()
      : scenario(core::make_scenario(bench::paper_config(16, 3200), 5)),
        partitioning(core::initial_partition(scenario, {})),
        start(core::preprovision(scenario, partitioning).placement) {
    const core::Combiner combiner(scenario, partitioning, {});
    combiner.descend_to_budget(start);
  }
};

void BM_PolishEstimateRegime(benchmark::State& state) {
  static const EstimatePolishSetup setup;
  const core::Combiner combiner(setup.scenario, setup.partitioning, {});
  for (auto _ : state) {
    core::Placement placement = setup.start;
    combiner.polish(placement);
    benchmark::DoNotOptimize(placement);
  }
  state.counters["classes"] =
      static_cast<double>(setup.scenario.classes().num_classes());
  state.counters["nodes"] = setup.scenario.num_nodes();
}
BENCHMARK(BM_PolishEstimateRegime)->Unit(benchmark::kMillisecond);

void BM_SimplexRandomLp(benchmark::State& state) {
  util::Rng rng(7);
  solver::Model model;
  const int n = static_cast<int>(state.range(0));
  for (int j = 0; j < n; ++j) {
    model.add_variable(0.0, 1.0, rng.uniform(-1.0, 1.0), false);
  }
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) terms.emplace_back(j, rng.uniform(0.1, 2.0));
    }
    if (!terms.empty()) {
      model.add_constraint(std::move(terms), solver::Sense::kLe,
                           rng.uniform(1.0, 5.0));
    }
  }
  for (auto _ : state) {
    auto result = solver::solve_lp(model);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(50)->Arg(150);

void BM_FuzzyAhpWeights(benchmark::State& state) {
  const auto eq = core::fuzzy_equal();
  const auto mod = core::fuzzy_moderate();
  const auto strong = core::fuzzy_strong();
  const std::vector<std::vector<core::TriFuzzy>> comparison = {
      {eq, mod, strong, strong},
      {mod.reciprocal(), eq, mod, strong},
      {strong.reciprocal(), mod.reciprocal(), eq, mod},
      {strong.reciprocal(), strong.reciprocal(), mod.reciprocal(), eq},
  };
  for (auto _ : state) {
    auto weights = core::buckley_weights(comparison);
    benchmark::DoNotOptimize(weights);
  }
}
BENCHMARK(BM_FuzzyAhpWeights);

void BM_SoclEndToEnd(benchmark::State& state) {
  const auto scenario = core::make_scenario(
      bench::paper_config(10, static_cast<int>(state.range(0))), 5);
  const core::SoCL socl;
  for (auto _ : state) {
    auto solution = socl.solve(scenario);
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_SoclEndToEnd)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond);

void BM_IlpBuild(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  for (auto _ : state) {
    auto ilp = ilp::build_socl_ilp(scenario);
    benchmark::DoNotOptimize(ilp);
  }
}
BENCHMARK(BM_IlpBuild);

}  // namespace
