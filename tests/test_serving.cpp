// Tests for the online serving loop (src/serve/): day completion under
// mobility + drift, bit-identical determinism across runs and DES thread
// counts, the three-tier control decision (carried / incremental / replan),
// the class diff's moved/unmoved counts, a per-user ChainRouter/Evaluator
// oracle on a tiny day, the cross-check lane (kernel re-route equality +
// validator cleanliness every slot), decision-independence of the demand
// trace, and the CSV series.
#include "serve/serving_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/routing.h"
#include "obs/recorder.h"

namespace socl::serve {
namespace {

ServingConfig small_config(std::uint64_t seed = 11) {
  ServingConfig config;
  config.scenario.num_nodes = 6;
  config.scenario.num_users = 10;  // templates
  config.population = 120;
  config.slots = 25;  // a full day and one more
  config.slot_horizon_s = 8.0;
  config.mobility.move_prob = 0.3;
  config.drift_prob = 0.05;
  config.arrivals.mean_rate = 0.05;
  config.runtime.series_bins = 0;
  config.full_replan_period = 8;
  config.seed = seed;
  return config;
}

/// Everything except the wall-clock control latency must match.
void expect_slots_equal(const std::vector<SlotReport>& a,
                        const std::vector<SlotReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(a[i].slot));
    EXPECT_EQ(a[i].slot, b[i].slot);
    EXPECT_EQ(a[i].mode, b[i].mode);
    EXPECT_EQ(a[i].classes, b[i].classes);
    EXPECT_EQ(a[i].classes_recomputed, b[i].classes_recomputed);
    EXPECT_EQ(a[i].classes_carried, b[i].classes_carried);
    EXPECT_EQ(a[i].moved_weight_fraction, b[i].moved_weight_fraction);
    EXPECT_EQ(a[i].objective, b[i].objective);
    EXPECT_EQ(a[i].deployment_cost, b[i].deployment_cost);
    EXPECT_EQ(a[i].mean_latency_s, b[i].mean_latency_s);
    EXPECT_EQ(a[i].placement_churn, b[i].placement_churn);
    EXPECT_EQ(a[i].churn_cost, b[i].churn_cost);
    EXPECT_EQ(a[i].prewarm_ahead_hits, b[i].prewarm_ahead_hits);
    EXPECT_EQ(a[i].invocations, b[i].invocations);
    EXPECT_EQ(a[i].requests_completed, b[i].requests_completed);
    EXPECT_EQ(a[i].slo_met, b[i].slo_met);
    EXPECT_EQ(a[i].cold_serves, b[i].cold_serves);
    EXPECT_EQ(a[i].arrival_intensity, b[i].arrival_intensity);
    EXPECT_EQ(a[i].demand_fingerprint, b[i].demand_fingerprint);
  }
}

TEST(ServingLoop, DayCompletesWithServingActivity) {
  ServingLoop loop(small_config());
  const ServingReport report = loop.run();
  ASSERT_EQ(report.slots.size(), 25u);
  EXPECT_EQ(report.replans + report.incremental_slots + report.carried_slots,
            25);
  EXPECT_GE(report.replans, 1);  // slot 1 always replans
  EXPECT_GT(report.invocations, 0);
  EXPECT_GT(report.requests_completed, 0);
  EXPECT_GE(report.invocations, report.requests_completed);
  EXPECT_GE(report.slo_attainment(), 0.0);
  EXPECT_LE(report.slo_attainment(), 1.0);
  EXPECT_GE(report.cold_start_rate(), 0.0);
  EXPECT_LE(report.cold_start_rate(), 1.0);
  for (const SlotReport& slot : report.slots) {
    EXPECT_EQ(slot.classes_recomputed + slot.classes_carried, slot.classes);
    EXPECT_GT(slot.classes, 0);
    EXPECT_GT(slot.arrival_intensity, 0.0);
  }
}

TEST(ServingLoop, DeterministicAcrossRunsAndThreadCounts) {
  // The second day's population spans three arrival blocks, so with
  // runtime.threads != 1 the loop's own pool draws them in parallel (and
  // fans out the DES route tables); every slot must match the serial day.
  ServingConfig multi_block = small_config(37);
  multi_block.population = 2 * serverless::kArrivalBlockUsers + 7;
  multi_block.slots = 4;
  multi_block.arrivals.mean_rate = 0.2;  // a request or two per user and slot
  for (const ServingConfig& config : {small_config(23), multi_block}) {
    const ServingReport first = ServingLoop(config).run();
    const ServingReport second = ServingLoop(config).run();
    expect_slots_equal(first.slots, second.slots);
    EXPECT_GT(first.invocations, 0);

    ServingConfig threaded = config;
    threaded.runtime.threads = 3;
    const ServingReport third = ServingLoop(threaded).run();
    expect_slots_equal(first.slots, third.slots);
  }
}

TEST(ServingLoop, CrossCheckLaneIsCleanEverySlot) {
  ServingConfig config = small_config(31);
  config.slots = 24;
  config.cross_check = true;
  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 24u);
  for (const SlotReport& slot : report.slots) {
    EXPECT_TRUE(slot.full_reroute_matches) << "slot " << slot.slot;
    EXPECT_EQ(slot.validator_violations, 0) << "slot " << slot.slot;
  }
  // The day must actually exercise the incremental machinery, otherwise the
  // lane proves nothing.
  EXPECT_GT(report.carried_slots + report.incremental_slots, 0);
}

TEST(ServingLoop, DemandTraceIsIndependentOfReplanPolicy) {
  // Mobility, drift and arrivals are drawn from seed-keyed streams that no
  // control decision touches: a day that replans every slot and one that
  // carries between periodic replans see the same demand, slot for slot.
  ServingConfig every_slot = small_config(59);
  every_slot.slots = 12;
  every_slot.full_replan_period = 1;
  ServingConfig periodic = every_slot;
  periodic.full_replan_period = 8;
  const ServingReport a = ServingLoop(every_slot).run();
  const ServingReport b = ServingLoop(periodic).run();
  EXPECT_EQ(a.replans, 12);
  EXPECT_LT(b.replans, 12);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_NE(a.slots[i].demand_fingerprint, 0u);
    EXPECT_EQ(a.slots[i].demand_fingerprint, b.slots[i].demand_fingerprint)
        << "slot " << a.slots[i].slot;
  }
}

TEST(ServingLoop, EverySlotMatchesPerUserRouterAndEvaluator) {
  // Per-user oracle on a tiny scripted day that visits every rung: each
  // user's served route must equal a from-scratch per-user ChainRouter
  // route of the slot's placement, and the reported objective must equal
  // the Evaluator's.
  ServingConfig config = small_config(61);
  config.slots = 7;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  config.full_replan_period = 6;  // slots 1 and 7 replan
  config.cross_check = true;
  config.workload_hook = [](int slot,
                            std::vector<workload::UserRequest>& requests) {
    if (slot == 3) {
      // Swap the demand of two users with different tuples (ids stay put):
      // the workload epoch moves but every tuple was already served.
      for (std::size_t i = 1; i < requests.size(); ++i) {
        if (!workload::same_request_class(requests[0], requests[i])) {
          std::swap(requests[0], requests[i]);
          std::swap(requests[0].id, requests[i].id);
          break;
        }
      }
    } else if (slot == 4) {
      requests[0].deadline = requests[0].deadline * 2.0 + 1.0;
    } else if (slot == 5) {
      for (std::size_t i = 0; i < requests.size(); i += 4) {
        requests[i].deadline = requests[i].deadline * 3.0 + 2.0;
      }
    }
  };
  const SlotMode expected[] = {SlotMode::kReplan,  SlotMode::kCarried,
                               SlotMode::kCarried, SlotMode::kIncremental,
                               SlotMode::kReplan,  SlotMode::kCarried,
                               SlotMode::kReplan};
  ServingLoop loop(config);
  for (const SlotMode mode : expected) {
    const SlotReport report = loop.step();
    SCOPED_TRACE("slot " + std::to_string(report.slot));
    EXPECT_EQ(report.mode, mode);
    const core::Scenario& scenario = loop.scenario();
    const auto routes = core::ChainRouter(scenario).route_all(loop.placement());
    ASSERT_TRUE(routes.has_value());
    for (int h = 0; h < scenario.num_users(); ++h) {
      const auto served = loop.assignment().user_route(h);
      const auto oracle = routes->user_route(h);
      ASSERT_TRUE(std::equal(served.begin(), served.end(), oracle.begin(),
                             oracle.end()))
          << "user " << h;
    }
    const double objective =
        core::Evaluator(scenario).evaluate(loop.placement()).objective;
    EXPECT_NEAR(report.objective, objective, 1e-12 * std::abs(objective));
  }
}

/// Field-for-field equality of two workloads (ids included).
void expect_same_requests(const std::vector<workload::UserRequest>& a,
                          const std::vector<workload::UserRequest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t h = 0; h < a.size(); ++h) {
    SCOPED_TRACE("request " + std::to_string(h));
    EXPECT_EQ(a[h].id, b[h].id);
    EXPECT_EQ(a[h].attach_node, b[h].attach_node);
    EXPECT_EQ(a[h].chain, b[h].chain);
    EXPECT_EQ(a[h].edge_data, b[h].edge_data);
    EXPECT_EQ(a[h].data_in, b[h].data_in);
    EXPECT_EQ(a[h].data_out, b[h].data_out);
    EXPECT_EQ(a[h].deadline, b[h].deadline);
  }
}

TEST(ServingLoop, RecycledRequestBuffersKeepNoStaleFields) {
  // advance_workload copy-assigns each slot's population into the buffer
  // the previous slot replaced. The hook drifts users between chains of
  // different lengths (both ways) and moves attach nodes. With mobility and
  // drift off, its input must be exactly the population the scenario held
  // after the previous slot, and the scenario must then hold exactly what
  // it produced.
  ServingConfig config = small_config(17);
  config.slots = 9;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  std::vector<workload::UserRequest> produced;
  int hooked = 0;
  int grown = 0;
  int shrunk = 0;
  config.workload_hook = [&](int slot,
                             std::vector<workload::UserRequest>& requests) {
    expect_same_requests(requests, produced);
    const std::size_t n = requests.size();
    const auto before = requests;
    for (std::size_t i = 0; i < n; ++i) {
      const auto s = static_cast<std::size_t>(slot);
      if ((i + s) % 3 == 0) {
        const auto& donor = before[(i * 7 + s) % n];
        requests[i].chain = donor.chain;
        requests[i].edge_data = donor.edge_data;
        requests[i].deadline = donor.deadline;
      }
      if ((i + s) % 5 == 0) {
        requests[i].attach_node =
            (requests[i].attach_node + slot) % config.scenario.num_nodes;
      }
      grown += requests[i].chain.size() > before[i].chain.size() ? 1 : 0;
      shrunk += requests[i].chain.size() < before[i].chain.size() ? 1 : 0;
    }
    produced = requests;
    ++hooked;
  };
  ServingLoop loop(config);
  produced = loop.scenario().requests();
  for (int slot = 1; slot <= config.slots; ++slot) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    loop.step();
    expect_same_requests(loop.scenario().requests(), produced);
  }
  EXPECT_EQ(hooked, config.slots - 1);  // the hook runs from slot 2
  EXPECT_GT(grown, 0);
  EXPECT_GT(shrunk, 0);
}

TEST(ServingLoop, StaticWorkloadCarriesEverySlot) {
  ServingConfig config = small_config(7);
  config.slots = 6;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  config.full_replan_period = 0;
  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 6u);
  EXPECT_EQ(report.slots[0].mode, SlotMode::kReplan);
  for (std::size_t i = 1; i < report.slots.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(report.slots[i].slot));
    EXPECT_EQ(report.slots[i].mode, SlotMode::kCarried);
    EXPECT_EQ(report.slots[i].classes_recomputed, 0);
    EXPECT_EQ(report.slots[i].moved_weight_fraction, 0.0);
    EXPECT_EQ(report.slots[i].placement_churn, 0);
    EXPECT_EQ(report.slots[i].churn_cost, 0.0);
  }
}

TEST(ServingLoop, SingleMovedClassRecomputesExactlyOne) {
  ServingConfig config = small_config(13);
  config.slots = 4;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  config.full_replan_period = 0;
  // Slot 2: give user 0 a unique deadline — a demand tuple no cached class
  // has — so exactly one class moves. The change persists, so slot 3 finds
  // it cached again and carries everything.
  config.workload_hook = [](int slot,
                            std::vector<workload::UserRequest>& requests) {
    if (slot == 2) requests[0].deadline = requests[0].deadline * 2.0 + 1.0;
  };
  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 4u);
  EXPECT_EQ(report.slots[1].mode, SlotMode::kIncremental);
  EXPECT_EQ(report.slots[1].classes_recomputed, 1);
  EXPECT_EQ(report.slots[1].classes_carried, report.slots[1].classes - 1);
  EXPECT_EQ(report.slots[1].placement_churn, 0);  // placement was carried
  EXPECT_EQ(report.slots[2].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[2].classes_recomputed, 0);
  EXPECT_EQ(report.slots[3].mode, SlotMode::kCarried);
}

TEST(ServingLoop, PeriodicReplanFiresOnSchedule) {
  ServingConfig config = small_config(17);
  config.slots = 7;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  config.full_replan_period = 3;  // slots 4 and 7 replan (1 always does)
  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 7u);
  EXPECT_EQ(report.slots[0].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[3].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[6].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[1].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[2].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[4].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[5].mode, SlotMode::kCarried);
}

TEST(ServingLoop, HeavyDriftTriggersReplan) {
  ServingConfig config = small_config(19);
  config.slots = 3;
  config.mobility.move_prob = 0.9;
  config.mobility.local_hop_prob = 0.2;
  config.drift_prob = 0.5;
  config.replan_weight_threshold = 0.0;  // any movement forces a replan
  config.full_replan_period = 0;
  const ServingReport report = ServingLoop(config).run();
  EXPECT_EQ(report.slots[1].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[1].classes_recomputed, report.slots[1].classes);
  EXPECT_GT(report.slots[1].moved_weight_fraction, 0.0);
}

TEST(ServingReport, CsvIsDeterministicAndExcludesWallClock) {
  ServingConfig config = small_config(29);
  config.slots = 5;
  const std::string a = ServingLoop(config).run().to_csv();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, ServingLoop(config).run().to_csv());
  EXPECT_NE(a.find("slot,mode,classes"), std::string::npos);
  EXPECT_EQ(a.find("control"), std::string::npos);  // no wall-clock column
  // Header plus one row per slot.
  EXPECT_EQ(std::count(a.begin(), a.end(), '\n'), 6);
}

TEST(ServingLoop, StepBeyondRunExtendsTheDay) {
  ServingConfig config = small_config(37);
  config.slots = 3;
  ServingLoop loop(config);
  loop.run();
  const SlotReport extra = loop.step();
  EXPECT_EQ(extra.slot, 4);
  EXPECT_EQ(loop.slot(), 4);
}

/// Per-slot shard bookkeeping must match too (excluded from
/// expect_slots_equal because unsharded-vs-sharded comparisons legitimately
/// differ there).
void expect_shard_fields_equal(const std::vector<SlotReport>& a,
                               const std::vector<SlotReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(a[i].slot));
    EXPECT_EQ(a[i].shards_resolved, b[i].shards_resolved);
    EXPECT_EQ(a[i].repriced, b[i].repriced);
  }
}

TEST(ServingLoop, OneMetroShardedDayIsByteIdenticalToUnsharded) {
  // The serve→shard seam's identity lane: with one metro the per-metro plan
  // and the single-shard plan are the same one shard, which aliases the
  // loop's scenario — so the whole day, slot for slot and column for column,
  // must reproduce the unsharded day bit for bit.
  ServingConfig base = small_config(41);
  base.slots = 12;
  base.metros = 1;
  ServingConfig sharded = base;
  sharded.sharded = true;

  const ServingReport a = ServingLoop(base).run();
  const ServingReport b = ServingLoop(sharded).run();
  expect_slots_equal(a.slots, b.slots);
  EXPECT_FALSE(a.to_csv().empty());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(ServingLoop, ShardedTwoMetroDayWithCrossMetroChurnIsClean) {
  // The sharded differential day: cross-metro commuters re-home between
  // shards through the dense remap every slot, and the cross-check lane
  // (full global re-route equality + SolutionValidator) must stay clean on
  // the merged placement throughout.
  ServingConfig config = small_config(43);
  config.scenario.num_nodes = 5;  // per metro
  config.metros = 2;
  config.sharded = true;
  config.cross_metro_prob = 0.08;
  config.cross_check = true;
  config.slots = 12;
  // Each shard must cover its own used microservices (no cross-shard
  // sharing of instances), so the decomposition's coverage floor is ~2× the
  // single-substrate one — budget the day accordingly.
  config.scenario.constants.budget = 13000.0;

  // Node ids are metro-major (metro = attach_node / nodes_per_metro), so the
  // workload hook can watch users actually cross the shard boundary.
  int crossings = 0;
  std::vector<int> prev_metro;
  config.workload_hook = [&](int,
                             std::vector<workload::UserRequest>& requests) {
    std::vector<int> metro(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      metro[i] = requests[i].attach_node / 5;
    }
    if (!prev_metro.empty()) {
      for (std::size_t i = 0; i < metro.size(); ++i) {
        if (metro[i] != prev_metro[i]) ++crossings;
      }
    }
    prev_metro = std::move(metro);
  };

  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 12u);
  EXPECT_GT(crossings, 0);
  EXPECT_GT(report.shards_resolved, 0);
  for (const SlotReport& slot : report.slots) {
    EXPECT_TRUE(slot.full_reroute_matches) << "slot " << slot.slot;
    EXPECT_EQ(slot.validator_violations, 0) << "slot " << slot.slot;
  }
}

TEST(ServingLoop, ShardedReplanResolvesOnlyTheMovedShard) {
  // Per-shard selectivity of the serving rung: a demand change confined to
  // metro 0 must re-run exactly one shard's rung at the frozen price — no
  // global re-price, no touch of metro 1.
  ServingConfig config = small_config(47);
  config.scenario.num_nodes = 5;  // per metro
  config.metros = 2;
  config.sharded = true;
  config.slots = 4;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  config.full_replan_period = 0;
  config.replan_weight_threshold = 0.0;  // any movement forces a replan
  config.workload_hook = [](int slot,
                            std::vector<workload::UserRequest>& requests) {
    if (slot != 2) return;
    for (auto& request : requests) {
      if (request.attach_node < 5) {  // metro 0
        request.deadline = request.deadline * 2.0 + 1.0;
        break;
      }
    }
  };

  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 4u);
  EXPECT_EQ(report.slots[1].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[1].shards_resolved, 1);
  EXPECT_FALSE(report.slots[1].repriced);
  // The change persists, so later slots carry: the shard machinery is idle.
  EXPECT_EQ(report.slots[2].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[2].shards_resolved, 0);
  EXPECT_EQ(report.slots[3].shards_resolved, 0);
}

TEST(ServingLoop, ShardedDayIsDeterministicAcrossRunsAndThreadCounts) {
  ServingConfig config = small_config(53);
  config.scenario.num_nodes = 5;  // per metro
  config.metros = 2;
  config.sharded = true;
  config.cross_metro_prob = 0.1;
  config.slots = 10;
  config.scenario.constants.budget = 13000.0;  // 2× coverage floor

  const ServingReport first = ServingLoop(config).run();
  const ServingReport second = ServingLoop(config).run();
  expect_slots_equal(first.slots, second.slots);
  expect_shard_fields_equal(first.slots, second.slots);

  ServingConfig threaded = config;
  threaded.runtime.threads = 3;
  threaded.shard.threads = 2;
  threaded.shard.shard_threads = 1;
  const ServingReport third = ServingLoop(threaded).run();
  expect_slots_equal(first.slots, third.slots);
  expect_shard_fields_equal(first.slots, third.slots);
}

// Per-shard solves report through the day's sink, from the coordinator's
// fan-out threads when sharded: the work counters must be real and must not
// depend on how many threads shared the sink.
TEST(ServingLoop, ShardedDaySinkCountsPerShardWorkAcrossThreadCounts) {
  ServingConfig config = small_config(59);
  config.scenario.num_nodes = 5;  // per metro
  config.metros = 2;
  config.sharded = true;
  config.slots = 6;
  config.scenario.constants.budget = 13000.0;  // 2× coverage floor

  const auto work_counters = [&config](int threads) {
    obs::Recorder recorder;
    ServingConfig run = config;
    run.sink = &recorder;
    run.online.socl.sink = &recorder;
    run.shard.threads = threads;
    ServingLoop(run).run();
    const obs::MetricsSnapshot snapshot = recorder.metrics().snapshot();
    const auto counter = [&snapshot](const char* name) -> std::int64_t {
      const obs::SnapshotEntry* entry = snapshot.find(name);
      return entry != nullptr ? entry->counter : 0;
    };
    // perfbench's core.kernel_costs, core.routes_computed, core.serial_moves.
    return std::vector<std::int64_t>{
        counter("socl.kernel.costs"), counter("socl.routing.routes_computed"),
        counter("socl.combination.serial_removals") +
            counter("socl.combination.rollbacks")};
  };

  const std::vector<std::int64_t> serial = work_counters(1);
  for (const std::int64_t counter : serial) EXPECT_GT(counter, 0);
  EXPECT_EQ(work_counters(2), serial);
}

}  // namespace
}  // namespace socl::serve
