// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// routing DP, the scoring kernel, virtual-link construction, latency-loss
// updates, the simplex engine, the end-to-end SoCL solve, the sharded
// price search, request-class aggregation of a 100k-user population, a
// serving slot's data plane (arrival generation and one DES window), and the
// thread pool's fan-out dispatch.
#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <memory>
#include <utility>

#include "bench_common.h"
#include "core/fuzzy_ahp.h"
#include "core/routing_engine.h"
#include "ilp/socl_ilp.h"
#include "net/multi_metro.h"
#include "serve/serving_loop.h"
#include "shard/sharded_solver.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/request_classes.h"
#include "workload/request_gen.h"

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

// refresh() re-routes only the classes whose chain services changed node
// set, so the loop alternates between the pre-provisioned placement and a
// copy where every service's node set differs: each refresh re-routes every
// class, the full-refresh cost this case has always measured.
void BM_RouteCacheRefresh(benchmark::State& state) {
  const auto& setup = scan_setup();
  const auto& scenario = shared_scenario();
  core::Placement flipped = setup.pre.placement;
  for (core::MsId m = 0; m < scenario.num_microservices(); ++m) {
    for (core::NodeId k = 0; k < scenario.num_nodes(); ++k) {
      if (!flipped.deployed(m, k)) {
        flipped.deploy(m, k);
        break;
      }
    }
  }
  core::RoutingEngine engine(scenario);
  bool flip = false;
  for (auto _ : state) {
    engine.refresh(flip ? flipped : setup.pre.placement);
    flip = !flip;
    benchmark::DoNotOptimize(engine.cached_latency_sum());
  }
  attach_routing_counters(state, engine.counters());
}
BENCHMARK(BM_RouteCacheRefresh)->Unit(benchmark::kMillisecond);

// ScoreKernel::class_cost over every class of the shared scenario under the
// pre-provisioned placement. warm:0 scores on a fresh arena per iteration
// (first touch: candidate lists, lane buffers and the DP for every class);
// warm:1 re-binds one long-lived arena to the same placement, so repeated
// (class, chain node sets) keys can be served without a DP run.
void BM_ScoreKernelClassCost(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const auto& scenario = shared_scenario();
  const auto& setup = scan_setup();
  const core::ScoreKernel kernel(scenario);
  const int classes = scenario.classes().num_classes();
  core::ScoreKernel::Arena long_lived;
  core::KernelStats stats;
  if (warm) {
    kernel.bind(long_lived, setup.pre.placement);
    for (int c = 0; c < classes; ++c) kernel.class_cost(c, long_lived, stats);
  }
  for (auto _ : state) {
    core::ScoreKernel::Arena fresh;
    core::ScoreKernel::Arena& arena = warm ? long_lived : fresh;
    kernel.bind(arena, setup.pre.placement);
    double total = 0.0;
    for (int c = 0; c < classes; ++c) {
      total += kernel.class_cost(c, arena, stats);
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["classes"] = classes;
}
BENCHMARK(BM_ScoreKernelClassCost)->ArgName("warm")->Arg(0)->Arg(1);

// One coordinated ShardedSoCL::solve — the whole budget-price search — on a
// 4-metro × 6-node substrate with the eshop catalogue: 400 template users
// replicated to 2000, under a budget tight enough that the search runs 15
// priced iterates and stops on the bracket rule, like the re-prices of a
// chaos_sharded day. perfbench's pin: 2 shard lanes × 2 combination lanes
// (each the calling thread plus one worker), so the case reports wall time.
void BM_ShardedPriceSearch(benchmark::State& state) {
  static const auto setup = [] {
    net::MultiMetroConfig config;
    config.metros = 4;
    config.metro.num_nodes = 6;
    const net::MultiMetroTopology topo = net::make_multi_metro(config, 7);
    workload::RequestGenConfig gen;
    gen.num_users = 400;
    core::ProblemConstants constants;
    constants.budget = 4000.0 * config.metros;
    auto requests = workload::replicate_requests(
        workload::generate_requests(topo.network, workload::eshop_catalog(),
                                    gen, 11),
        2000);
    return std::make_pair(
        std::make_unique<core::Scenario>(topo.network,
                                         workload::eshop_catalog(),
                                         std::move(requests), constants),
        shard::plan_from_metros(topo.metro_of, config.metros));
  }();
  shard::ShardedParams params;
  params.threads = 2;
  params.shard_threads = 2;
  int iterations = 0;
  for (auto _ : state) {
    shard::ShardedSoCL solver(*setup.first, setup.second, params);
    const shard::ShardedSolution solution = solver.solve();
    iterations = solution.iterations;
    benchmark::DoNotOptimize(solution.evaluation.objective);
  }
  state.counters["price_iterations"] = iterations;
}
BENCHMARK(BM_ShardedPriceSearch)->Unit(benchmark::kMillisecond)->UseRealTime();

// perfbench serving_day's arrival stream for one slot: 100k users, a 30 s
// window in 40 bins at 3e-3 requests/user/s (per-bin means around 2e-3).
serverless::ArrivalConfig serving_day_arrivals() {
  serverless::ArrivalConfig config;
  config.horizon_s = 30.0;
  config.bins = 40;
  config.mean_rate = 3e-3;
  return config;
}

// workers:1 draws serially; workers:2 draws the same stream in blocks on 2
// lanes of the shared pool, as a ServingLoop with perfbench's 2 runtime
// threads does.
void BM_GenerateArrivals(benchmark::State& state) {
  const int users = 100'000;
  const serverless::ArrivalConfig config = serving_day_arrivals();
  const auto workers = static_cast<int>(state.range(0));
  std::size_t arrivals = 0;
  for (auto _ : state) {
    const auto stream = serverless::generate_arrivals(users, config, workers);
    arrivals = stream.size();
    benchmark::DoNotOptimize(stream.data());
  }
  state.counters["arrivals"] = static_cast<double>(arrivals);
}
BENCHMARK(BM_GenerateArrivals)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One serving_day-sized DES window: the perfbench serving_day geometry (16
// nodes, 200 templates replicated to 100k users) after its first replan,
// serving BM_GenerateArrivals' stream under the Alg. 2 pre-warm policy with
// the replan's placement carried, its route tables on 2 lanes of the shared
// pool (perfbench's 2 runtime threads), as the serving loop's are.
void BM_DesWindow(benchmark::State& state) {
  static const auto loop = [] {
    serve::ServingConfig config;
    config.scenario.num_nodes = 16;
    config.scenario.num_users = 200;  // templates
    config.population = 100'000;
    config.slots = 1;
    config.slot_horizon_s = 30.0;
    config.arrivals = serving_day_arrivals();
    config.online.socl.combination.threads = 2;
    config.runtime.threads = 2;
    auto built = std::make_unique<serve::ServingLoop>(config);
    built->step();
    return built;
  }();
  const auto& scenario = loop->scenario();
  const auto arrivals = serverless::generate_arrivals(
      scenario.num_users(), serving_day_arrivals());
  const serverless::SoCLPrewarmPolicy policy(scenario);
  const serverless::ServerlessRuntime runtime(scenario,
                                              loop->config().runtime);
  std::int64_t invocations = 0;
  for (auto _ : state) {
    const auto metrics = runtime.run(loop->placement(), loop->assignment(),
                                     arrivals, policy, 7, &loop->placement());
    invocations = metrics.totals.invocations;
    benchmark::DoNotOptimize(metrics.requests.data());
  }
  state.counters["arrivals"] = static_cast<double>(arrivals.size());
  state.counters["invocations"] = static_cast<double>(invocations);
}
BENCHMARK(BM_DesWindow)->Unit(benchmark::kMillisecond)->UseRealTime();

// One fan-out on perfbench's 2-lane pool (the calling thread plus one
// worker): n:16 work_us:0 is dispatch alone; n:64 work_us:5 spins about 5 µs
// per iteration, the size of a per-shard scoring fan-out on chaos_sharded.
void BM_ParallelForDispatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto work = std::chrono::microseconds(state.range(1));
  util::ThreadPool pool(2);
  std::vector<std::size_t> out(n);
  for (auto _ : state) {
    pool.parallel_for(n, [&](std::size_t i) {
      const auto until = std::chrono::steady_clock::now() + work;
      while (std::chrono::steady_clock::now() < until) {
      }
      out[i] = i;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForDispatch)
    ->ArgNames({"n", "work_us"})
    ->Args({16, 0})
    ->Args({64, 5})
    ->UseRealTime();

// Population ingest at serving_day size: 200 templates on 16 nodes
// replicated to 100k users with seeded attach nodes (3,200 classes),
// aggregated into request classes once per iteration.
void BM_RequestClasses(benchmark::State& state) {
  static const auto population = [] {
    const auto scenario = core::make_scenario(bench::paper_config(16, 200), 3);
    auto requests = workload::replicate_requests(scenario.requests(), 100'000);
    util::Rng rng(0xa77ac4ULL);
    for (auto& request : requests) {
      request.attach_node = static_cast<net::NodeId>(rng.index(16));
    }
    return requests;
  }();
  int classes = 0;
  for (auto _ : state) {
    const workload::RequestClasses aggregated(population);
    classes = aggregated.num_classes();
    benchmark::DoNotOptimize(classes);
  }
  state.counters["users"] = static_cast<double>(population.size());
  state.counters["classes"] = static_cast<double>(classes);
}
BENCHMARK(BM_RequestClasses)->Unit(benchmark::kMillisecond);

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

// The kernel against its oracle over the polish case's class set (3,200
// classes x 16 nodes, budget-descended placement): every class's cost and
// route, through ScoreKernel::class_cost + class_route on a fresh arena
// (scorer:0, so no class-cost memo carries over between iterations) or
// through ChainRouter::route_cost + route_into on a warmed scratch
// (scorer:1). The ratio of the two is the kernel's per-class speedup.
void BM_KernelVsChainRouter(benchmark::State& state) {
  static const EstimatePolishSetup setup;
  const bool oracle = state.range(0) != 0;
  const core::Scenario& scenario = setup.scenario;
  const workload::RequestClasses& classes = scenario.classes();
  const core::ScoreKernel kernel(scenario);
  const core::ChainRouter router(scenario);
  core::RouteScratch scratch;
  core::KernelStats stats;
  core::RouteResult route;
  for (auto _ : state) {
    core::ScoreKernel::Arena arena;
    kernel.bind(arena, setup.start);
    double total = 0.0;
    for (int c = 0; c < classes.num_classes(); ++c) {
      const auto& request = scenario.request(classes.cls(c).representative);
      if (oracle) {
        total += router.route_cost(request, setup.start, scratch);
        router.route_into(request, setup.start, scratch, route);
      } else {
        total += kernel.class_cost(c, arena, stats);
        kernel.class_route(c, arena, stats, route);
      }
      total += route.total();
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["classes"] = classes.num_classes();
}
BENCHMARK(BM_KernelVsChainRouter)->ArgName("scorer")->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

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
