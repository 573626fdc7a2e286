// Tests for Algorithms 3 & 4: latency losses, connection updates, parallel
// and serial combination, roll-back, and budget enforcement.
#include "core/combination.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "obs/recorder.h"
#include "workload/catalog.h"

namespace socl::core {
namespace {

ScenarioConfig base_config(int nodes = 8, int users = 30,
                           double budget = 6500.0) {
  ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  config.constants.budget = budget;
  return config;
}

struct Fixture {
  Scenario scenario;
  Partitioning partitioning;
  Preprovisioning pre;

  explicit Fixture(std::uint64_t seed, ScenarioConfig config = base_config())
      : scenario(make_scenario(config, seed)),
        partitioning(initial_partition(scenario, {})),
        pre(preprovision(scenario, partitioning)) {}
};

TEST(Combiner, BestConnectionPicksDeployedNode) {
  Fixture fx(1);
  Combiner combiner(fx.scenario, fx.partitioning, {});
  for (const auto& request : fx.scenario.requests()) {
    for (const MsId m : request.chain) {
      const NodeId k =
          combiner.best_connection(request.id, m, fx.pre.placement);
      ASSERT_NE(k, net::kInvalidNode);
      EXPECT_TRUE(fx.pre.placement.deployed(m, k));
    }
  }
}

/// Index of the group of `partition` that holds node k, or -1.
int group_of(const MsPartition& partition, NodeId k) {
  for (std::size_t s = 0; s < partition.groups.size(); ++s) {
    const auto& group = partition.groups[s];
    if (std::find(group.begin(), group.end(), k) != group.end()) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

TEST(Combiner, BestConnectionPrefersUserGroup) {
  Fixture fx(2);
  Combiner combiner(fx.scenario, fx.partitioning, {});
  for (const auto& request : fx.scenario.requests()) {
    for (const MsId m : request.chain) {
      const NodeId k =
          combiner.best_connection(request.id, m, fx.pre.placement);
      const auto& partition =
          fx.partitioning.per_ms[static_cast<std::size_t>(m)];
      const int user_group = group_of(partition, request.attach_node);
      ASSERT_GE(user_group, 0) << "attach node must be a demand node";
      // If the user's group holds any instance, the connection stays inside.
      bool group_has_instance = false;
      for (const NodeId q :
           partition.groups[static_cast<std::size_t>(user_group)]) {
        if (fx.pre.placement.deployed(m, q)) group_has_instance = true;
      }
      if (group_has_instance) {
        EXPECT_EQ(group_of(partition, k), user_group);
      }
    }
  }
}

TEST(Combiner, BestConnectionInvalidWhenUndeployed) {
  Fixture fx(3);
  Combiner combiner(fx.scenario, fx.partitioning, {});
  const Placement empty(fx.scenario);
  EXPECT_EQ(combiner.best_connection(0, fx.scenario.request(0).chain[0],
                                     empty),
            net::kInvalidNode);
}

TEST(Combiner, EstimatedCompletionUpperBoundsExactRouting) {
  Fixture fx(4);
  Combiner combiner(fx.scenario, fx.partitioning, {});
  const ChainRouter router(fx.scenario);
  for (const auto& request : fx.scenario.requests()) {
    const double estimate =
        combiner.estimated_completion(request, fx.pre.placement);
    const auto route = router.route(request, fx.pre.placement);
    ASSERT_TRUE(route.has_value());
    EXPECT_GE(estimate, route->total() - 1e-9);
  }
}

TEST(Combiner, LatencyLossesAscendingAndSkipSingletons) {
  Fixture fx(5);
  Combiner combiner(fx.scenario, fx.partitioning, {});
  const auto losses = combiner.latency_losses(fx.pre.placement);
  for (std::size_t i = 1; i < losses.size(); ++i) {
    EXPECT_LE(losses[i - 1].gradient, losses[i].gradient);
  }
  for (const auto& loss : losses) {
    EXPECT_GT(fx.pre.placement.instance_count(loss.service), 1);
    EXPECT_TRUE(fx.pre.placement.deployed(loss.service, loss.node));
  }
}

TEST(Combiner, LatencyLossesFiniteWithConsistentGradient) {
  // ζ may be negative (a reconnection can land on a faster-compute node)
  // but must be finite while every service keeps a fallback instance, and
  // the gradient must follow (1-λ)·w·ζ − λ·κ.
  Fixture fx(6);
  Combiner combiner(fx.scenario, fx.partitioning, {});
  const auto& constants = fx.scenario.constants();
  for (const auto& loss : combiner.latency_losses(fx.pre.placement)) {
    EXPECT_TRUE(std::isfinite(loss.zeta));
    const double expected =
        (1.0 - constants.lambda) * constants.latency_weight * loss.zeta -
        constants.lambda *
            fx.scenario.catalog().microservice(loss.service).deploy_cost;
    EXPECT_NEAR(loss.gradient, expected, 1e-9);
  }
}

TEST(Combiner, RunMeetsBudget) {
  Fixture fx(7, base_config(8, 40, 5500.0));
  Combiner combiner(fx.scenario, fx.partitioning, {});
  CombinationStats stats;
  const auto placement = combiner.run(fx.pre, &stats);
  EXPECT_LE(placement.deployment_cost(fx.scenario.catalog()),
            fx.scenario.constants().budget + 1e-6);
  EXPECT_GE(stats.parallel_rounds, 0);
}

TEST(Combiner, KeepsEveryRequestedServiceAlive) {
  Fixture fx(8, base_config(8, 40, 5000.0));
  Combiner combiner(fx.scenario, fx.partitioning, {});
  const auto placement = combiner.run(fx.pre, nullptr);
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (!fx.scenario.demand_nodes(m).empty()) {
      EXPECT_GE(placement.instance_count(m), 1) << "ms " << m;
    }
  }
}

TEST(Combiner, FinalPlacementRoutable) {
  Fixture fx(9, base_config(10, 50, 6000.0));
  Combiner combiner(fx.scenario, fx.partitioning, {});
  const auto placement = combiner.run(fx.pre, nullptr);
  const ChainRouter router(fx.scenario);
  EXPECT_TRUE(router.route_all(placement).has_value());
}

TEST(Combiner, SerialStageReducesObjectiveVsPreprovision) {
  Fixture fx(10, base_config(8, 40, 6500.0));
  CombinationConfig config;
  config.theta = 0.0;  // strict descent
  Combiner combiner(fx.scenario, fx.partitioning, config);
  const double before = combiner.estimated_objective(fx.pre.placement);
  const auto placement = combiner.run(fx.pre, nullptr);
  const double after = combiner.estimated_objective(placement);
  EXPECT_LE(after, before + 1e-6);
}

TEST(Combiner, DisabledParallelStageStillMeetsBudget) {
  Fixture fx(11, base_config(8, 40, 5200.0));
  CombinationConfig config;
  config.use_parallel_stage = false;
  Combiner combiner(fx.scenario, fx.partitioning, config);
  CombinationStats stats;
  const auto placement = combiner.run(fx.pre, &stats);
  EXPECT_EQ(stats.parallel_rounds, 0);
  // Serial descent keeps combining while over budget only via δ; without
  // the parallel stage the budget may bind through storage/objective — the
  // placement must still be routable.
  const ChainRouter router(fx.scenario);
  EXPECT_TRUE(router.route_all(placement).has_value());
}

TEST(Combiner, RollbackCountReportedWhenDeadlinesTight) {
  ScenarioConfig config = base_config(8, 40, 5500.0);
  config.requests.deadline_slack = 1.2;  // tight deadlines force rollbacks
  Fixture fx(12, config);
  CombinationConfig comb;
  comb.theta = 200.0;  // push hard so rollback triggers
  Combiner combiner(fx.scenario, fx.partitioning, comb);
  CombinationStats stats;
  combiner.run(fx.pre, &stats);
  // Not guaranteed on every seed, but stats must be self-consistent.
  EXPECT_GE(stats.rollbacks, 0);
  EXPECT_GE(stats.serial_removals, 0);
}

TEST(Combiner, OmegaControlsParallelAggressiveness) {
  ScenarioConfig config = base_config(10, 60, 5200.0);
  Fixture fx(13, config);
  CombinationConfig slow, fast;
  slow.omega = 0.05;
  fast.omega = 0.5;
  CombinationStats slow_stats, fast_stats;
  Combiner(fx.scenario, fx.partitioning, slow).run(fx.pre, &slow_stats);
  Combiner(fx.scenario, fx.partitioning, fast).run(fx.pre, &fast_stats);
  if (slow_stats.parallel_rounds > 0 && fast_stats.parallel_rounds > 0) {
    EXPECT_GE(slow_stats.parallel_rounds, fast_stats.parallel_rounds);
  }
}

TEST(Combiner, EstimatedObjectiveInfiniteWhenServiceMissing) {
  Fixture fx(14);
  Combiner combiner(fx.scenario, fx.partitioning, {});
  const Placement empty(fx.scenario);
  EXPECT_TRUE(std::isinf(combiner.estimated_objective(empty)));
}

// ---- Estimate regime: above classes · nodes³ · 5 = 5e7 (2441 classes at
// 16 nodes) the combiner scores moves with the connection-rule estimate,
// through the incremental estimate cache. RegimeMetricsEmittedWithSink
// confirms the fixture is in that regime. ----

const Fixture& estimate_fixture() {
  static const Fixture fixture(21, base_config(16, 2600, 9000.0));
  return fixture;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Classes whose from-scratch estimate under `placement` misses the deadline.
int late_classes(const Combiner& combiner, const Scenario& scenario,
                 const Placement& placement) {
  int late = 0;
  for (const auto& cls : scenario.classes().classes()) {
    const auto& request = scenario.request(cls.representative);
    if (combiner.estimated_completion(request, placement) >
        request.deadline + 1e-9) {
      ++late;
    }
  }
  return late;
}

struct SweepCounts {
  int moves = 0;
  int orphans = 0;
  int late_verdicts = 0;
};

/// Every add, remove and relocate move off `base`, and the no-op move: the
/// incremental score must match the full estimate bit for bit, and the
/// roll-back check (estimated over the connection table) the late count of
/// from-scratch per-request estimates.
SweepCounts sweep_moves(const Combiner& combiner, const Scenario& scenario,
                        const Placement& base) {
  EXPECT_EQ(bits(combiner.refresh_estimate_cache(base)),
            bits(combiner.estimated_objective(base)));
  SweepCounts counts;
  EstimateScratch scratch;
  const auto check = [&](const Placement& trial, MsId m) {
    const double full = combiner.estimated_objective(trial);
    const double incremental =
        combiner.estimated_objective_with_change(trial, m, scratch);
    ASSERT_EQ(bits(incremental), bits(full))
        << "m=" << m << " full=" << full << " incremental=" << incremental;
    const bool late = late_classes(combiner, scenario, trial) > 0;
    ASSERT_EQ(combiner.violates_deadline(trial), late) << "m=" << m;
    ++counts.moves;
    if (std::isinf(full)) ++counts.orphans;
    if (late) ++counts.late_verdicts;
  };
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    check(base, m);  // no connection moves: the cached total
    for (NodeId k = 0; k < scenario.num_nodes(); ++k) {
      if (!base.deployed(m, k)) {
        Placement add = base;
        add.deploy(m, k);
        check(add, m);
        continue;
      }
      Placement remove = base;
      remove.remove(m, k);
      check(remove, m);
      for (NodeId q = 0; q < scenario.num_nodes(); ++q) {
        if (base.deployed(m, q)) continue;
        Placement relocate = remove;
        relocate.deploy(m, q);
        check(relocate, m);
      }
    }
  }
  return counts;
}

TEST(CombinerEstimateCache, EveryMoveScoresBitwiseLikeFullEstimate) {
  const auto& fx = estimate_fixture();
  Combiner combiner(fx.scenario, fx.partitioning, {});
  // Thin the dense pre-provisioning so adds, relocations, and removals that
  // orphan a class (even services cut to a single instance) all occur. The
  // thinned base already has late classes; the dense one has none, so the
  // roll-back check is swept from both sides.
  Placement thinned = fx.pre.placement;
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    const auto nodes = thinned.nodes_of(m);
    const std::size_t stride = m % 2 == 0 ? nodes.size() : 3;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i % stride != 0) thinned.remove(m, nodes[i]);
    }
  }
  {
    SCOPED_TRACE("thinned base, some classes late");
    ASSERT_GT(late_classes(combiner, fx.scenario, thinned), 0);
    const SweepCounts counts =
        sweep_moves(combiner, fx.scenario, thinned);
    EXPECT_GT(counts.moves, 500);
    EXPECT_GT(counts.orphans, 0) << "no move removed a service's last instance";
    EXPECT_LT(counts.late_verdicts, counts.moves) << "no move cured the base";
  }
  {
    SCOPED_TRACE("dense base, no class late");
    ASSERT_EQ(late_classes(combiner, fx.scenario, fx.pre.placement), 0);
    const SweepCounts counts =
        sweep_moves(combiner, fx.scenario, fx.pre.placement);
    EXPECT_GT(counts.moves, 200);
  }
}

// Two request classes on three nodes; the first chain visits microservice 0
// twice, so one move reconnects two of its positions at once.
Scenario make_revisit_scenario() {
  net::EdgeNetwork network;
  for (const double gflops : {10.0, 25.0, 6.0}) {
    net::EdgeNode node;
    node.compute_gflops = gflops;
    network.add_node(node);
  }
  network.add_link_with_rate(0, 1, 10.0);
  network.add_link_with_rate(1, 2, 4.0);
  network.add_link_with_rate(0, 2, 2.5);
  workload::UserRequest revisit;
  revisit.id = 0;
  revisit.attach_node = 0;
  revisit.chain = {0, 1, 0};
  revisit.edge_data = {2.0, 3.0};
  revisit.data_in = 1.5;
  revisit.data_out = 0.5;
  revisit.deadline = 1e9;
  workload::UserRequest other;
  other.id = 1;
  other.attach_node = 2;
  other.chain = {1, 0};
  other.edge_data = {1.0};
  other.deadline = 1e9;
  return Scenario(std::move(network), workload::tiny_catalog(),
                  {revisit, other}, {});
}

TEST(CombinerEstimateCache, RevisitedServiceScoresBitwiseLikeFullEstimate) {
  const Scenario scenario = make_revisit_scenario();
  const Partitioning partitioning = initial_partition(scenario, {});
  const Combiner combiner(scenario, partitioning, {});
  ASSERT_EQ(scenario.classes().num_classes(), 2);
  Placement base(scenario);
  base.deploy(0, 0);
  base.deploy(0, 2);
  base.deploy(1, 1);
  const SweepCounts counts = sweep_moves(combiner, scenario, base);
  EXPECT_GT(counts.moves, 4);
  EXPECT_GT(counts.orphans, 0);
}

TEST(CombinerEstimateCache, DescentsIdenticalAcrossThreadCountsAndRescan) {
  const auto& fx = estimate_fixture();
  CombinationConfig serial;
  serial.threads = 1;
  CombinationConfig fanned;
  fanned.threads = 4;
  Placement a = fx.pre.placement;
  Placement b = fx.pre.placement;
  Combiner(fx.scenario, fx.partitioning, serial).descend_to_budget(a);
  Combiner(fx.scenario, fx.partitioning, fanned).descend_to_budget(b);
  EXPECT_EQ(a, b);
  EXPECT_LE(a.deployment_cost(fx.scenario.catalog()),
            fx.scenario.constants().budget + 1e-9);
  const Combiner combiner(fx.scenario, fx.partitioning, serial);
  combiner.polish(a);
  Combiner(fx.scenario, fx.partitioning, fanned).polish(b);
  EXPECT_EQ(a, b);
  // Golden polish outcome, recorded when every move was still scored by the
  // full estimated_objective rescan: a change in the incremental path's
  // polish trajectory fails here end to end.
  EXPECT_EQ(a.total_instances(), 29);
  EXPECT_EQ(bits(combiner.estimated_objective(a)), 0x40e955b3856d0da1ULL);
}

TEST(CombinerEstimateCache, RegimeMetricsEmittedWithSink) {
  const auto regime_metrics = [](const Fixture& fx) {
    obs::Recorder recorder;
    CombinationConfig config;
    config.sink = &recorder;
    Combiner(fx.scenario, fx.partitioning, config).run(fx.pre);
    const auto snapshot = recorder.metrics().snapshot();
    const auto* gauge = snapshot.find("socl.combination.estimate_regime");
    const auto* counter =
        snapshot.find("socl.combination.classes_reestimated");
    EXPECT_NE(gauge, nullptr);
    EXPECT_NE(counter, nullptr);
    return std::make_pair(gauge != nullptr ? gauge->gauge : -1.0,
                          counter != nullptr ? counter->counter : -1);
  };
  const auto [estimated, reestimated] =
      regime_metrics(estimate_fixture());
  EXPECT_EQ(estimated, 1.0);
  EXPECT_GT(reestimated, 0);
  const auto [exact, exact_reestimated] = regime_metrics(Fixture(22));
  EXPECT_EQ(exact, 0.0);
  EXPECT_EQ(exact_reestimated, 0);
}

// ---- Dense-basin multi-start: with threads != 1 the basin descends on a
// second lane of the shared pool, on its own scoring engine, while the main
// stages run. The golden work counters were recorded with the basin
// descending after the polish on the main engine, so a dropped counter fold
// (or any extra or missing scoring work) fails here. The counters of
// refresh DP work (routes_computed and the kernel costs, lanes and lookups)
// were re-recorded when refresh() began re-routing only the classes its
// placement diff touches; every other golden is the sequential original. ----

struct BasinGolden {
  std::int64_t routes_computed;
  std::int64_t cache_hits;
  std::int64_t reroutes_avoided;
  std::int64_t candidates_scored;
  std::int64_t cache_refreshes;
  std::int64_t kernel_costs;
  std::int64_t kernel_lanes;
  std::int64_t kernel_lookups;  ///< memo hits + misses
  std::int64_t classes_reestimated;
};

void expect_basin_matches(const Fixture& fx, const BasinGolden& golden) {
  std::optional<Placement> reference;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::Recorder recorder;
    CombinationConfig config;
    config.threads = threads;
    config.sink = &recorder;
    CombinationStats stats;
    const Placement placement =
        Combiner(fx.scenario, fx.partitioning, config).run(fx.pre, &stats);
    if (!reference) reference = placement;
    EXPECT_EQ(placement, *reference);

    const RoutingCounters& routing = stats.routing;
    EXPECT_EQ(routing.routes_computed, golden.routes_computed);
    EXPECT_EQ(routing.cache_hits, golden.cache_hits);
    EXPECT_EQ(routing.reroutes_avoided, golden.reroutes_avoided);
    EXPECT_EQ(routing.candidates_scored, golden.candidates_scored);
    EXPECT_EQ(routing.cache_refreshes, golden.cache_refreshes);
    EXPECT_EQ(routing.kernel.costs, golden.kernel_costs);
    EXPECT_EQ(routing.kernel.lanes, golden.kernel_lanes);
    EXPECT_EQ(routing.kernel.memo_hits + routing.kernel.memo_misses,
              golden.kernel_lookups);
    EXPECT_EQ(routing.kernel.rebuilds, 0);

    const auto snapshot = recorder.metrics().snapshot();
    const auto* reestimated =
        snapshot.find("socl.combination.classes_reestimated");
    ASSERT_NE(reestimated, nullptr);
    EXPECT_EQ(reestimated->counter, golden.classes_reestimated);
    const auto* multi_start = snapshot.find("socl.combination.multi_start_s");
    ASSERT_NE(multi_start, nullptr);
    EXPECT_EQ(multi_start->histogram.count, 1);
    const auto events = recorder.trace().events();
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [](const obs::TraceEvent& event) {
                              return std::string_view(event.name) ==
                                     "combination.multi_start";
                            }),
              1);
  }
}

TEST(CombinerMultiStart, ConcurrentBasinMatchesParent) {
  {
    SCOPED_TRACE("exact regime");
    expect_basin_matches(
        Fixture(7, base_config(8, 40, 5500.0)),
        {75825, 23365, 23365, 5189, 88, 75825, 206223, 340205, 0});
  }
  {
    SCOPED_TRACE("estimate regime");
    expect_basin_matches(estimate_fixture(),
                         {0, 0, 0, 28730, 0, 0, 0, 0, 5364102});
  }
}

// Minimal two-node scenario whose single request makes services 0 and 1
// chain-adjacent (and leaves 2 unconnected) for the conflict-filter tests.
struct ConflictFixture {
  Scenario scenario;
  Partitioning partitioning;
  Combiner combiner;

  ConflictFixture()
      : scenario(make_conflict_scenario()),
        partitioning(initial_partition(scenario, {})),
        combiner(scenario, partitioning, {}) {}

  static Scenario make_conflict_scenario() {
    net::EdgeNetwork network;
    network.add_node({});
    network.add_node({});
    network.add_link_with_rate(0, 1, 10.0);
    workload::UserRequest request;
    request.id = 0;
    request.attach_node = 0;
    request.chain = {0, 1};
    request.edge_data = {1.0};
    return Scenario(std::move(network), workload::tiny_catalog(), {request},
                    {});
  }
};

TEST(Combiner, ConflictFilterDiscardsByZetaNotGradient) {
  // Algorithm 3 line 4 keeps the SMALLER ζ of a chain-adjacent pair. The
  // input is gradient-ascending, and deploy-cost differences can make the
  // gradient order disagree with the ζ order — entry 0 has the better
  // gradient but the worse ζ, so it is the one that must be discarded.
  ConflictFixture fx;
  const std::vector<LatencyLoss> omega_set{
      {/*service=*/0, /*node=*/0, /*zeta=*/5.0, /*gradient=*/-10.0},
      {/*service=*/1, /*node=*/1, /*zeta=*/1.0, /*gradient=*/-2.0},
  };
  const auto discard = fx.combiner.dependency_conflict_filter(omega_set);
  ASSERT_EQ(discard.size(), 2u);
  EXPECT_TRUE(discard[0]);
  EXPECT_FALSE(discard[1]);
}

TEST(Combiner, ConflictFilterTieBreaksOnGradientThenOrder) {
  ConflictFixture fx;
  // Equal ζ: the smaller gradient wins.
  const std::vector<LatencyLoss> gradient_tie{
      {0, 0, /*zeta=*/2.0, /*gradient=*/-1.0},
      {1, 1, /*zeta=*/2.0, /*gradient=*/-7.0},
  };
  const auto by_gradient = fx.combiner.dependency_conflict_filter(gradient_tie);
  EXPECT_TRUE(by_gradient[0]);
  EXPECT_FALSE(by_gradient[1]);
  // Fully identical scores: the earlier entry is kept, deterministically.
  const std::vector<LatencyLoss> full_tie{
      {0, 0, 2.0, -1.0},
      {1, 1, 2.0, -1.0},
  };
  const auto by_order = fx.combiner.dependency_conflict_filter(full_tie);
  EXPECT_FALSE(by_order[0]);
  EXPECT_TRUE(by_order[1]);
}

TEST(Combiner, ConflictFilterIgnoresNonAdjacentAndSameService) {
  ConflictFixture fx;
  // Services 0 and 2 never appear adjacently; same-service pairs are the
  // multi-instance case the per-service floor handles, not a conflict.
  const std::vector<LatencyLoss> no_conflict{
      {0, 0, 5.0, -10.0},
      {2, 1, 1.0, -2.0},
      {0, 1, 1.0, -2.0},
  };
  const auto discard = fx.combiner.dependency_conflict_filter(no_conflict);
  for (std::size_t i = 0; i < discard.size(); ++i) {
    EXPECT_FALSE(discard[i]) << "entry " << i;
  }
}

}  // namespace
}  // namespace socl::core
