// Tests for the SoA scoring kernel (DESIGN.md §4h): lane-batched costs and
// routes must be bit-identical to the legacy ChainRouter DP — with and
// without the precomputed delay tables — across workload mutations
// (shrinking and repeated-microservice chains that leave stale SoA/scratch
// tails), and steady-state scoring must be allocation-free (pinned with a
// whole-executable operator-new override).
#include "core/score_kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "core/routing_engine.h"
#include "core/socl.h"
#include "net/failures.h"
#include "validate/differential.h"

// ---- Global allocation counter (whole-executable operator new override) ----
// Each test target is its own executable, so replacing the global operator
// new here observes every allocation made by the code under test.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// GCC's -Wmismatched-new-delete fires on replaced global allocators built
// on malloc/free even though new/delete are consistently paired; the
// replacement itself is the standard sanctioned form ([new.delete.single]).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

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

/// Asserts kernel class_cost/class_route bitwise against the ChainRouter
/// oracle on every request class under `placement`.
void expect_kernel_matches_router(const Scenario& scenario,
                                  const ScoreKernel& kernel,
                                  const Placement& placement,
                                  ScoreKernel::Arena& arena) {
  KernelStats stats;
  EXPECT_EQ(validate::kernel_oracle_mismatch(scenario, kernel, placement,
                                             arena, stats),
            "");
  EXPECT_GT(stats.costs, 0);
  EXPECT_GT(stats.lanes, 0);
}

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

/// A user at hub 0 of a symmetric star (nodes 1 and 2: equal speed, equal
/// link rate) whose chain is hosted on both leaves: the two conditionings
/// (1, 1) and (2, 2) end with bit-equal totals.
Scenario make_tied_scenario() {
  net::EdgeNetwork network;
  for (int k = 0; k < 3; ++k) network.add_node({});
  network.add_link_with_rate(0, 1, 8.0);
  network.add_link_with_rate(0, 2, 8.0);
  workload::UserRequest request;
  request.id = 0;
  request.attach_node = 0;
  request.chain = {0, 1};
  request.edge_data = {2.0};
  return Scenario(std::move(network), workload::tiny_catalog(), {request}, {});
}

TEST(ScoreKernel, CostsAndRoutesBitIdenticalToLegacy) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    Fixture fx(seed);
    ScoreKernel kernel(fx.scenario);
    EXPECT_TRUE(kernel.delay_tables_enabled());
    ScoreKernel::Arena arena;
    expect_kernel_matches_router(fx.scenario, kernel, fx.pre.placement, arena);
  }
}

// Terminal ties: routes (1, 1) and (2, 2) end with bit-equal totals, and the
// kernel must keep the first minimum in terminal-node order, as the oracle's
// strict < does. Generated instances never tie, so only this pins the order.
TEST(ScoreKernel, TerminalTiesKeepFirstMinimum) {
  const Scenario tied = make_tied_scenario();
  Placement both(tied);
  for (const MsId m : {0, 1}) {
    both.deploy(m, 1);
    both.deploy(m, 2);
  }
  RouteScratch scratch;
  RouteResult oracle;
  ASSERT_TRUE(
      ChainRouter(tied).route_into(tied.request(0), both, scratch, oracle));
  EXPECT_EQ(oracle.nodes, (std::vector<NodeId>{1, 1}));
  for (const std::size_t budget : {std::size_t{0}, std::size_t{1} << 20}) {
    ScoreKernel kernel(tied, budget);
    ScoreKernel::Arena arena;
    expect_kernel_matches_router(tied, kernel, both, arena);
    KernelStats stats;
    kernel.bind(arena, both);
    RouteResult route;
    ASSERT_TRUE(kernel.class_route(0, arena, stats, route));
    EXPECT_EQ(route.nodes, oracle.nodes) << "delay-table budget " << budget;
  }
}

TEST(ScoreKernel, TableFallbackIsBitIdenticalToo) {
  Fixture fx(31);
  // A zero byte budget forces the on-the-fly division path; same operands,
  // same operation, so still bit-identical to the tabled kernel and legacy.
  ScoreKernel tabled(fx.scenario);
  ScoreKernel untabled(fx.scenario, /*delay_table_budget_bytes=*/0);
  ASSERT_TRUE(tabled.delay_tables_enabled());
  ASSERT_FALSE(untabled.delay_tables_enabled());
  ScoreKernel::Arena arena;
  expect_kernel_matches_router(fx.scenario, untabled, fx.pre.placement, arena);

  ScoreKernel::Arena arena_a;
  ScoreKernel::Arena arena_b;
  KernelStats stats;
  tabled.bind(arena_a, fx.pre.placement);
  untabled.bind(arena_b, fx.pre.placement);
  const int classes = fx.scenario.classes().num_classes();
  for (int c = 0; c < classes; ++c) {
    EXPECT_EQ(tabled.class_cost(c, arena_a, stats),
              untabled.class_cost(c, arena_b, stats))
        << "class " << c;
  }
}

TEST(ScoreKernel, SparsePlacementsAndUnroutableClasses) {
  Fixture fx(32);
  ScoreKernel kernel(fx.scenario);
  ScoreKernel::Arena arena;
  // Single node hosting everything (1-lane DP), then one service with no
  // instance at all (every class through it must be +inf on both paths).
  Placement lone(fx.scenario);
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    lone.deploy(m, 0);
  }
  expect_kernel_matches_router(fx.scenario, kernel, lone, arena);
  lone.remove(0, 0);
  expect_kernel_matches_router(fx.scenario, kernel, lone, arena);
}

// Workload mutation must not let the kernel score against stale SoA tails:
// shrink every multi-hop chain (fewer layers, shorter edge arrays) and
// re-sync; a kernel that lived through the mutation has to score exactly
// like one constructed from scratch — and like the legacy router, which
// reads the requests directly.
TEST(ScoreKernel, SyncAfterChainShrinkMatchesFreshKernel) {
  Fixture fx(33);
  ScoreKernel survivor(fx.scenario);
  ScoreKernel::Arena arena;
  expect_kernel_matches_router(fx.scenario, survivor, fx.pre.placement, arena);

  auto shrunk = fx.scenario.requests();
  bool mutated = false;
  for (auto& request : shrunk) {
    if (request.chain.size() > 1) {
      request.chain.pop_back();
      request.edge_data.pop_back();
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  fx.scenario.set_requests(std::move(shrunk));
  ASSERT_TRUE(survivor.sync());
  ASSERT_FALSE(survivor.sync()) << "second sync at the same epoch must no-op";

  expect_kernel_matches_router(fx.scenario, survivor, fx.pre.placement, arena);
  ScoreKernel fresh(fx.scenario);
  ScoreKernel::Arena fresh_arena;
  KernelStats stats;
  survivor.bind(arena, fx.pre.placement);
  fresh.bind(fresh_arena, fx.pre.placement);
  for (int c = 0; c < fx.scenario.classes().num_classes(); ++c) {
    EXPECT_EQ(survivor.class_cost(c, arena, stats),
              fresh.class_cost(c, fresh_arena, stats))
        << "class " << c;
  }
}

// A substrate swap moves the workload epoch, and the re-sync must pick up
// the new compute rates along with the delay tables: net::apply_failures
// drops a failed node's compute_gflops to ~0. A class attached to the failed
// node can only be served by the instances there (the node is isolated), so
// a kernel still holding the healthy compute rates would report a different
// compute term than ChainRouter, which reads the live network.
TEST(ScoreKernel, SyncAfterNodeFailureRefreshesComputeRates) {
  Fixture fx(34);
  Placement everywhere(fx.scenario);
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
      everywhere.deploy(m, k);
    }
  }
  ScoreKernel tabled(fx.scenario);
  ScoreKernel untabled(fx.scenario, /*delay_table_budget_bytes=*/0);

  net::FailurePlan plan;
  plan.failed_nodes = {fx.scenario.request(0).attach_node};
  fx.scenario.set_network(net::apply_failures(fx.scenario.network(), plan));
  ASSERT_TRUE(tabled.sync());
  ASSERT_TRUE(untabled.sync());

  ScoreKernel::Arena arena;
  expect_kernel_matches_router(fx.scenario, tabled, everywhere, arena);
  ScoreKernel::Arena untabled_arena;
  expect_kernel_matches_router(fx.scenario, untabled, everywhere,
                               untabled_arena);
}

// Chains that repeat a microservice exercise the memo (same candidate list
// gathered at several layers) and the repeated-ms route reconstruction.
TEST(ScoreKernel, RepeatedMicroserviceChains) {
  Fixture fx(34);
  auto looped = fx.scenario.requests();
  for (auto& request : looped) {
    if (request.chain.size() >= 2) {
      request.chain.back() = request.chain.front();
    }
  }
  fx.scenario.set_requests(std::move(looped));
  ScoreKernel kernel(fx.scenario);
  ScoreKernel::Arena arena;
  KernelStats stats;
  kernel.bind(arena, fx.pre.placement);
  for (int c = 0; c < fx.scenario.classes().num_classes(); ++c) {
    kernel.class_cost(c, arena, stats);
  }
  EXPECT_GT(stats.memo_hits, 0)
      << "repeated services should re-use gathered candidate lists";
  expect_kernel_matches_router(fx.scenario, kernel, fx.pre.placement, arena);
}

// The class-cost memo must be invisible: one long-lived arena scores random
// classes under a random walk of placements that keeps revisiting earlier
// ones (so the memo serves hits), and every class_cost must bitwise equal a
// fresh arena's result under the same placement.
// Moves toggle instances on nodes [first_node, V).
void expect_memo_transparent(const Scenario& scenario,
                             const ScoreKernel& kernel,
                             const Placement& start, std::uint64_t seed,
                             ScoreKernel::Arena& warm, KernelStats& stats,
                             int first_node = 0) {
  std::mt19937_64 rng(seed);
  const int services = scenario.num_microservices();
  const int nodes = scenario.num_nodes() - first_node;
  const int classes = scenario.classes().num_classes();
  std::vector<Placement> seen{start};
  Placement current = start;
  for (int step = 0; step < 40; ++step) {
    if (rng() % 3 == 0) {
      current = seen[rng() % seen.size()];
    } else {
      const auto m = static_cast<MsId>(rng() % services);
      const auto k = static_cast<NodeId>(first_node + rng() % nodes);
      if (current.deployed(m, k)) {
        current.remove(m, k);
      } else {
        current.deploy(m, k);
      }
      seen.push_back(current);
    }
    kernel.bind(warm, current);
    ScoreKernel::Arena fresh;
    KernelStats fresh_stats;
    kernel.bind(fresh, current);
    for (int i = 0; i < 2 * classes; ++i) {
      const int c = static_cast<int>(rng() % classes);
      const double memoized = kernel.class_cost(c, warm, stats);
      const double computed = kernel.class_cost(c, fresh, fresh_stats);
      // Bitwise, so a memo returning another key's total cannot hide
      // behind a near-equal value.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(memoized),
                std::bit_cast<std::uint64_t>(computed))
          << "step " << step << " class " << c;
    }
  }
}

TEST(ScoreKernel, ClassCostMemoIsTransparent) {
  Fixture fx(37, small_config(10, 80));
  ScoreKernel kernel(fx.scenario);
  ScoreKernel::Arena warm;
  KernelStats stats;
  expect_memo_transparent(fx.scenario, kernel, fx.pre.placement, 1, warm,
                          stats);
  EXPECT_GT(stats.cost_memo_hits, 0) << "the walk should revisit keys";

  // Workload epoch bump through set_requests: the warm arena's entries
  // belong to the old build and must never be served again.
  const auto donor = make_scenario(small_config(10, 80), 98);
  fx.scenario.set_requests(donor.requests());
  ASSERT_TRUE(kernel.sync());
  expect_memo_transparent(fx.scenario, kernel, fx.pre.placement, 2, warm,
                          stats);

  // And through set_network: a failed node changes compute rates and link
  // delays under unchanged classes, so a stale entry would differ.
  net::FailurePlan plan;
  plan.failed_nodes = {fx.scenario.request(0).attach_node};
  fx.scenario.set_network(net::apply_failures(fx.scenario.network(), plan));
  ASSERT_TRUE(kernel.sync());
  expect_memo_transparent(fx.scenario, kernel, fx.pre.placement, 3, warm,
                          stats);

  // The same arena handed to a second kernel (no delay tables) must not
  // read the first kernel's entries either.
  ScoreKernel untabled(fx.scenario, /*delay_table_budget_bytes=*/0);
  expect_memo_transparent(fx.scenario, untabled, fx.pre.placement, 4, warm,
                          stats);
}

// Past 64 nodes a node set spans several mask words; the key must compare
// all of them. Every instance starts on a node past the first word and the
// walk toggles nodes 60-69, so routes hinge on second-word bits.
TEST(ScoreKernel, ClassCostMemoMultiWordMasks) {
  Fixture fx(38, small_config(70, 40));
  Placement high(fx.scenario);
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    high.deploy(m, static_cast<NodeId>(64 + m % 6));
  }
  ScoreKernel kernel(fx.scenario);
  ScoreKernel::Arena warm;
  KernelStats stats;
  expect_memo_transparent(fx.scenario, kernel, high, 5, warm, stats,
                          /*first_node=*/60);
  EXPECT_GT(stats.cost_memo_hits, 0);
}

// The zero-allocation contract: once an arena has warmed up on a placement,
// re-binding and re-scoring every class allocates nothing.
TEST(ScoreKernel, SteadyStateScoringIsAllocationFree) {
  Fixture fx(35);
  ScoreKernel kernel(fx.scenario);
  ScoreKernel::Arena arena;
  KernelStats stats;
  RouteResult route;
  const int classes = fx.scenario.classes().num_classes();
  // Warm-up: grows the arena to the largest class and fills the memo.
  for (int pass = 0; pass < 2; ++pass) {
    kernel.bind(arena, fx.pre.placement);
    for (int c = 0; c < classes; ++c) {
      kernel.class_cost(c, arena, stats);
      kernel.class_route(c, arena, stats, route);
    }
  }
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  kernel.bind(arena, fx.pre.placement);
  for (int c = 0; c < classes; ++c) {
    kernel.class_cost(c, arena, stats);
    kernel.class_route(c, arena, stats, route);
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before)
      << "steady-state kernel scoring must not allocate";
}

// Engine-level guard: the engine must agree bitwise with its ChainRouter
// reference on refresh sums, objectives and the deadline verdict (the
// per-seed sweep lives in the differential harness's kernel lane).
TEST(ScoreKernel, EngineMatchesChainRouterReference) {
  Fixture fx(36);
  RoutingEngine engine(fx.scenario, 1);
  engine.refresh(fx.pre.placement);
  const validate::ReferenceObjectives reference(fx.scenario,
                                                fx.pre.placement);
  EXPECT_EQ(engine.cached_latency_sum(), reference.latency_sum());
  EXPECT_EQ(engine.full_objective(fx.pre.placement),
            reference.full_objective(fx.pre.placement));
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (fx.pre.placement.instance_count(m) <= 1) continue;
    for (const NodeId k : fx.pre.placement.nodes_of(m)) {
      Placement trial = fx.pre.placement;
      trial.remove(m, k);
      EXPECT_EQ(score_removal(engine, m, k, trial),
                reference.objective_without(m, k, trial))
          << "m=" << m << " k=" << k;
      EXPECT_EQ(engine.objective_with_change(trial, m),
                reference.objective_with_change(trial, m))
          << "m=" << m << " k=" << k;
    }
  }
  EXPECT_EQ(engine.any_deadline_violation(fx.pre.placement),
            reference.any_deadline_violation(fx.pre.placement));
  EXPECT_GT(engine.counters().kernel.costs, 0);
}

}  // namespace
}  // namespace socl::core
