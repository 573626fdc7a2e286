// Tests for the chaos lane (src/serve/chaos.* + the serving loop's failure
// threading): schedule determinism and bookkeeping invariants, the
// connectivity guard (global and per-metro), the healthy warm-up window,
// the failed-node cap, chaotic-day determinism across runs and DES thread
// counts, cross-check cleanliness of every degraded slot, forced replans on
// substrate changes, the chaos-off CSV identity, and the sharded re-price
// on substrate change (with the day ledger folded from its slots), also on a
// sharded day whose carried placement outlives a failure.
#include "serve/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "net/topology.h"
#include "serve/serving_loop.h"

namespace socl::serve {
namespace {

ChaosConfig lively_chaos() {
  ChaosConfig config;
  config.enabled = true;
  config.node_failure_rate = 0.08;
  config.link_failure_rate = 0.04;
  config.repair_median_slots = 2.0;
  config.repair_sigma = 0.4;
  config.flash_crowd_rate = 0.25;
  config.flash_crowd_multiplier = 3.0;
  config.flash_crowd_slots = 2;
  return config;
}

TEST(ChaosSchedule, DeterministicInSeed) {
  const auto network = net::make_topology(10, 3);
  const ChaosConfig config = lively_chaos();
  const ChaosSchedule a(network, config, 40, 99);
  const ChaosSchedule b(network, config, 40, 99);
  ASSERT_EQ(a.slots(), b.slots());
  for (int s = 1; s <= a.slots(); ++s) {
    SCOPED_TRACE("slot " + std::to_string(s));
    EXPECT_EQ(a.slot(s).plan.failed_nodes, b.slot(s).plan.failed_nodes);
    EXPECT_EQ(a.slot(s).plan.failed_links, b.slot(s).plan.failed_links);
    EXPECT_EQ(a.slot(s).flash_multiplier, b.slot(s).flash_multiplier);
    EXPECT_EQ(a.slot(s).changed, b.slot(s).changed);
  }
}

TEST(ChaosSchedule, DisabledOrDegenerateDaysStayHealthy) {
  const auto network = net::make_topology(8, 5);
  ChaosConfig off = lively_chaos();
  off.enabled = false;
  const ChaosSchedule disabled(network, off, 24, 7);
  for (int s = 1; s <= 24; ++s) {
    EXPECT_FALSE(disabled.slot(s).degraded());
    EXPECT_DOUBLE_EQ(disabled.slot(s).flash_multiplier, 1.0);
  }

  const ChaosSchedule empty_day(network, lively_chaos(), 0, 7);
  EXPECT_EQ(empty_day.slots(), 0);
  EXPECT_THROW(ChaosSchedule(network, lively_chaos(), -1, 7),
               std::invalid_argument);
}

TEST(ChaosSchedule, DayOpensHealthyUntilFirstSlot) {
  const auto network = net::make_topology(10, 11);
  ChaosConfig config = lively_chaos();
  config.node_failure_rate = 1.0;  // would fail something instantly
  config.link_failure_rate = 1.0;
  config.flash_crowd_rate = 1.0;
  config.first_slot = 5;
  const ChaosSchedule schedule(network, config, 12, 21);
  for (int s = 1; s <= 4; ++s) {
    SCOPED_TRACE("slot " + std::to_string(s));
    EXPECT_FALSE(schedule.slot(s).degraded());
    EXPECT_FALSE(schedule.slot(s).changed);
    EXPECT_DOUBLE_EQ(schedule.slot(s).flash_multiplier, 1.0);
  }
  EXPECT_TRUE(schedule.slot(5).degraded());
}

TEST(ChaosSchedule, BookkeepingInvariantsAndGlobalGuard) {
  const auto network = net::make_topology(10, 3);
  const ChaosConfig config = lively_chaos();
  const ChaosSchedule schedule(network, config, 40, 123);

  const int node_cap = static_cast<int>(config.max_failed_node_fraction *
                                        static_cast<double>(10));
  int failures = 0, repairs = 0, degraded_slots = 0;
  std::size_t prev_nodes = 0, prev_links = 0;
  net::FailurePlan prev_plan;
  for (int s = 1; s <= schedule.slots(); ++s) {
    SCOPED_TRACE("slot " + std::to_string(s));
    const SlotChaos& slot = schedule.slot(s);
    // Cumulative counts evolve exactly by this slot's failures and repairs.
    EXPECT_EQ(slot.plan.failed_nodes.size(),
              prev_nodes + static_cast<std::size_t>(slot.nodes_failed_now) -
                  static_cast<std::size_t>(slot.nodes_repaired_now));
    EXPECT_EQ(slot.plan.failed_links.size(),
              prev_links + static_cast<std::size_t>(slot.links_failed_now) -
                  static_cast<std::size_t>(slot.links_repaired_now));
    // The failed-node cap binds every slot.
    EXPECT_LE(static_cast<int>(slot.plan.failed_nodes.size()), node_cap);
    // `changed` is exactly "the plan differs from the previous slot's".
    const bool differs = slot.plan.failed_nodes != prev_plan.failed_nodes ||
                         slot.plan.failed_links != prev_plan.failed_links;
    EXPECT_EQ(slot.changed, differs);
    // The global connectivity guard held: survivors stay mutually reachable
    // on the degraded substrate.
    EXPECT_TRUE(net::survivors_connected(
        network, net::failure_masks(network, slot.plan)));

    failures += slot.nodes_failed_now + slot.links_failed_now;
    repairs += slot.nodes_repaired_now + slot.links_repaired_now;
    degraded_slots += slot.degraded() ? 1 : 0;
    prev_nodes = slot.plan.failed_nodes.size();
    prev_links = slot.plan.failed_links.size();
    prev_plan = slot.plan;
  }
  // The day is a real chaos day: things broke, things were fixed.
  EXPECT_GT(failures, 0);
  EXPECT_GT(repairs, 0);
  EXPECT_GT(degraded_slots, 0);
}

/// Two triangle metros joined by a single backhaul link 2-3.
net::EdgeNetwork two_metro_triangles() {
  net::EdgeNetwork network;
  for (int i = 0; i < 6; ++i) network.add_node({});
  network.add_link_with_rate(0, 1, 5.0);
  network.add_link_with_rate(1, 2, 5.0);
  network.add_link_with_rate(0, 2, 5.0);
  network.add_link_with_rate(3, 4, 5.0);
  network.add_link_with_rate(4, 5, 5.0);
  network.add_link_with_rate(3, 5, 5.0);
  network.add_link_with_rate(2, 3, 5.0);  // the backhaul bridge, link id 6
  return network;
}

/// Survivors of `metro` must all reach each other through alive intra-metro
/// links of the degraded substrate.
bool metro_internally_connected(const net::EdgeNetwork& degraded,
                                const net::FailurePlan& plan,
                                const std::vector<int>& metro_of, int metro) {
  std::vector<std::uint8_t> dead(degraded.num_nodes(), 0);
  for (const net::NodeId k : plan.failed_nodes) {
    dead[static_cast<std::size_t>(k)] = 1;
  }
  std::vector<net::NodeId> members;
  for (net::NodeId k = 0; k < static_cast<net::NodeId>(degraded.num_nodes());
       ++k) {
    if (metro_of[static_cast<std::size_t>(k)] == metro && dead[k] == 0) {
      members.push_back(k);
    }
  }
  if (members.size() <= 1) return true;
  std::vector<std::uint8_t> seen(degraded.num_nodes(), 0);
  std::queue<net::NodeId> frontier;
  frontier.push(members.front());
  seen[static_cast<std::size_t>(members.front())] = 1;
  while (!frontier.empty()) {
    const net::NodeId k = frontier.front();
    frontier.pop();
    for (const auto& [neighbor, link] : degraded.neighbors(k)) {
      if (degraded.link(link).rate_gbps <= 0.0) continue;
      if (metro_of[static_cast<std::size_t>(neighbor)] != metro) continue;
      if (dead[static_cast<std::size_t>(neighbor)] != 0) continue;
      if (seen[static_cast<std::size_t>(neighbor)] != 0) continue;
      seen[static_cast<std::size_t>(neighbor)] = 1;
      frontier.push(neighbor);
    }
  }
  for (const net::NodeId k : members) {
    if (seen[static_cast<std::size_t>(k)] == 0) return false;
  }
  return true;
}

TEST(ChaosSchedule, PerMetroGuardAllowsBackhaulCutsKeepsMetrosRoutable) {
  const net::EdgeNetwork network = two_metro_triangles();
  const std::vector<int> metro_of = {0, 0, 0, 1, 1, 1};
  ChaosConfig config = lively_chaos();
  config.node_failure_rate = 0.0;  // isolate the link process
  config.link_failure_rate = 0.5;

  int backhaul_cuts = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ChaosSchedule schedule(network, config, 20, seed, &metro_of);
    for (int s = 1; s <= schedule.slots(); ++s) {
      const net::FailurePlan& plan = schedule.slot(s).plan;
      const auto degraded = net::apply_failures(network, plan);
      for (int m = 0; m < 2; ++m) {
        EXPECT_TRUE(metro_internally_connected(degraded, plan, metro_of, m))
            << "seed " << seed << " slot " << s << " metro " << m;
      }
      if (std::find(plan.failed_links.begin(), plan.failed_links.end(),
                    net::LinkId{6}) != plan.failed_links.end()) {
        ++backhaul_cuts;
      }
    }
  }
  // The per-metro guard must let the bridge fail — that is the whole point
  // of scoping it (a global guard would veto every backhaul cut).
  EXPECT_GT(backhaul_cuts, 0);

  // And indeed the global guard never cuts the bridge.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ChaosSchedule global(network, config, 20, seed);
    for (int s = 1; s <= global.slots(); ++s) {
      const auto& links = global.slot(s).plan.failed_links;
      EXPECT_TRUE(std::find(links.begin(), links.end(), net::LinkId{6}) ==
                  links.end())
          << "seed " << seed << " slot " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Serving-loop integration.

ServingConfig chaotic_config(std::uint64_t seed = 61) {
  ServingConfig config;
  config.scenario.num_nodes = 6;
  config.scenario.num_users = 10;  // templates
  config.population = 120;
  config.slots = 20;
  config.slot_horizon_s = 8.0;
  config.mobility.move_prob = 0.3;
  config.drift_prob = 0.05;
  config.arrivals.mean_rate = 0.05;
  config.runtime.series_bins = 0;
  config.full_replan_period = 8;
  config.seed = seed;
  config.chaos = lively_chaos();
  return config;
}

/// Every deterministic field, chaos columns included.
void expect_slots_equal(const std::vector<SlotReport>& a,
                        const std::vector<SlotReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(a[i].slot));
    EXPECT_EQ(a[i].mode, b[i].mode);
    EXPECT_EQ(a[i].classes, b[i].classes);
    EXPECT_EQ(a[i].classes_recomputed, b[i].classes_recomputed);
    EXPECT_EQ(a[i].objective, b[i].objective);
    EXPECT_EQ(a[i].placement_churn, b[i].placement_churn);
    EXPECT_EQ(a[i].invocations, b[i].invocations);
    EXPECT_EQ(a[i].requests_completed, b[i].requests_completed);
    EXPECT_EQ(a[i].slo_met, b[i].slo_met);
    EXPECT_EQ(a[i].cold_serves, b[i].cold_serves);
    EXPECT_EQ(a[i].arrival_intensity, b[i].arrival_intensity);
    EXPECT_EQ(a[i].demand_fingerprint, b[i].demand_fingerprint);
    EXPECT_EQ(a[i].failed_nodes, b[i].failed_nodes);
    EXPECT_EQ(a[i].failed_links, b[i].failed_links);
    EXPECT_EQ(a[i].users_rehomed, b[i].users_rehomed);
    EXPECT_EQ(a[i].flash_multiplier, b[i].flash_multiplier);
    EXPECT_EQ(a[i].substrate_changed, b[i].substrate_changed);
  }
}

/// The day ledger (ServingReport::add) is the fold of its slots: every total
/// a SlotReport carries, summed in slot order (so bit-equal).
void expect_ledger_is_fold(const ServingReport& report) {
  ServingReport fold;
  for (const SlotReport& slot : report.slots) {
    fold.invocations += slot.invocations;
    fold.requests_completed += slot.requests_completed;
    fold.slo_met += slot.slo_met;
    fold.cold_serves += slot.cold_serves;
    fold.classes_total += slot.classes;
    fold.classes_recomputed += slot.classes_recomputed;
    fold.carried_slots += slot.mode == SlotMode::kCarried ? 1 : 0;
    fold.incremental_slots += slot.mode == SlotMode::kIncremental ? 1 : 0;
    fold.replans += slot.mode == SlotMode::kReplan ? 1 : 0;
    fold.churn_instances += slot.placement_churn;
    fold.churn_cost += slot.churn_cost;
    fold.prewarm_ahead_hits += slot.prewarm_ahead_hits;
    fold.shards_resolved += slot.shards_resolved;
    fold.reprices += slot.repriced ? 1 : 0;
    fold.control_s_total += slot.control_s;
    fold.chaos_users_rehomed += slot.users_rehomed;
    fold.chaos_flash_slots += slot.flash_multiplier > 1.0 ? 1 : 0;
    if (slot.failed_nodes > 0 || slot.failed_links > 0) {
      ++fold.chaos_degraded_slots;
      fold.degraded_requests += slot.requests_completed;
      fold.degraded_slo_met += slot.slo_met;
    }
  }
  const auto totals = [](const ServingReport& r) {
    return std::make_tuple(
        r.invocations, r.requests_completed, r.slo_met, r.cold_serves,
        r.classes_total, r.classes_recomputed, r.carried_slots,
        r.incremental_slots, r.replans, r.churn_instances, r.churn_cost,
        r.prewarm_ahead_hits, r.shards_resolved, r.reprices,
        r.control_s_total, r.chaos_users_rehomed, r.chaos_flash_slots,
        r.chaos_degraded_slots, r.degraded_requests, r.degraded_slo_met);
  };
  EXPECT_EQ(totals(report), totals(fold));
}

TEST(ServingLoopChaos, ChaoticDayDeterministicAcrossRunsAndThreadCounts) {
  const ServingConfig config = chaotic_config(61);
  const ServingReport first = ServingLoop(config).run();
  const ServingReport second = ServingLoop(config).run();
  expect_slots_equal(first.slots, second.slots);
  // The identity is only meaningful if the day actually degraded.
  EXPECT_GT(first.chaos_node_failures + first.chaos_link_failures, 0);

  ServingConfig threaded = chaotic_config(61);
  threaded.runtime.threads = 3;
  const ServingReport third = ServingLoop(threaded).run();
  expect_slots_equal(first.slots, third.slots);
}

TEST(ServingLoopChaos, ChaoticDayCrossCheckCleanAndReplansOnSubstrateChange) {
  ServingConfig config = chaotic_config(67);
  config.cross_check = true;
  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 20u);
  EXPECT_TRUE(report.chaos);

  int rehomed = 0, flash = 0, degraded = 0;
  for (const SlotReport& slot : report.slots) {
    SCOPED_TRACE("slot " + std::to_string(slot.slot));
    EXPECT_TRUE(slot.full_reroute_matches);
    EXPECT_EQ(slot.validator_violations, 0);
    // A substrate swap (failure or repair) must force the replan rung —
    // carried placements may reference dead nodes.
    if (slot.substrate_changed) {
      EXPECT_EQ(slot.mode, SlotMode::kReplan);
    }
    if (slot.failed_nodes > 0 || slot.failed_links > 0) ++degraded;
    if (slot.flash_multiplier > 1.0) {
      ++flash;
      EXPECT_DOUBLE_EQ(slot.flash_multiplier,
                       config.chaos.flash_crowd_multiplier);
    }
    rehomed += slot.users_rehomed;
  }
  // Day totals agree with the per-slot series, and the day is non-trivial.
  EXPECT_EQ(report.chaos_users_rehomed, rehomed);
  EXPECT_EQ(report.chaos_degraded_slots, degraded);
  EXPECT_EQ(report.chaos_flash_slots, flash);
  EXPECT_GT(report.chaos_node_failures, 0);
  EXPECT_GT(report.chaos_repairs, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_GT(flash, 0);
  EXPECT_GT(rehomed, 0);  // someone was attached to a dead station
  EXPECT_GE(report.degraded_slo_attainment(), 0.0);
  EXPECT_LE(report.degraded_slo_attainment(), 1.0);
  EXPECT_GT(report.degraded_requests, 0);
}

TEST(ServingLoopChaos, ChaosOffIsByteIdenticalToHealthyDay) {
  // `chaos.enabled` fully gates the lane: rates cranked but the flag off
  // must serve — and export — exactly the healthy day.
  ServingConfig healthy = chaotic_config(71);
  healthy.chaos = ChaosConfig{};
  ServingConfig off = chaotic_config(71);
  off.chaos.node_failure_rate = 1.0;
  off.chaos.link_failure_rate = 1.0;
  off.chaos.flash_crowd_rate = 1.0;
  off.chaos.enabled = false;

  const std::string a = ServingLoop(healthy).run().to_csv();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, ServingLoop(off).run().to_csv());
  // The healthy CSV must not have grown chaos columns.
  EXPECT_EQ(a.find("failed_nodes"), std::string::npos);
}

TEST(ServingLoopChaos, ChaosCsvCarriesTheChaosColumns) {
  ServingConfig config = chaotic_config(73);
  config.slots = 8;
  const std::string csv = ServingLoop(config).run().to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find("failed_nodes"), std::string::npos);
  EXPECT_NE(header.find("users_rehomed"), std::string::npos);
  EXPECT_NE(header.find("flash_multiplier"), std::string::npos);
  EXPECT_NE(header.find("substrate_changed"), std::string::npos);
}

TEST(ServingLoopChaos, ShardedChaoticDayRepricesOnSubstrateChange) {
  // The shard seam under failures: a substrate change rebuilds the
  // coordinator, whose next replan runs the implicit full solve at a fresh
  // price (repriced = true) — and the merged placement stays validator-clean
  // on every slot of the degraded day.
  ServingConfig config = chaotic_config(79);
  config.scenario.num_nodes = 5;  // per metro
  config.metros = 2;
  config.sharded = true;
  config.cross_check = true;
  config.slots = 14;
  config.scenario.constants.budget = 13000.0;  // 2× coverage floor

  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 14u);
  int substrate_changes = 0;
  for (const SlotReport& slot : report.slots) {
    SCOPED_TRACE("slot " + std::to_string(slot.slot));
    EXPECT_TRUE(slot.full_reroute_matches);
    EXPECT_EQ(slot.validator_violations, 0);
    if (slot.substrate_changed) {
      ++substrate_changes;
      EXPECT_EQ(slot.mode, SlotMode::kReplan);
      EXPECT_TRUE(slot.repriced);
    }
  }
  EXPECT_GT(substrate_changes, 0);
  EXPECT_GT(report.reprices, 0);

  expect_ledger_is_fold(report);
  // The day is non-trivial on every rung of the ledger it pins.
  EXPECT_GT(report.shards_resolved, 0);
  EXPECT_GT(report.churn_instances, 0);
  EXPECT_GT(report.chaos_degraded_slots, 0);
  EXPECT_GT(report.chaos_users_rehomed + report.chaos_flash_slots, 0);
}

TEST(ServingLoopChaos, ShardedChaoticDayKeepsCarriedPlacementBetweenChanges) {
  // The day above replans on every slot. Here chaos starts late and the
  // workload moves slowly, so the sharded loop also keeps its carried
  // placement (carried or incremental rung) — on the healthy opening and
  // between substrate changes — and every one of those slots must pass the
  // same cross-check and validator as a replan.
  ServingConfig config = chaotic_config(79);
  config.scenario.num_nodes = 5;  // per metro
  config.metros = 2;
  config.sharded = true;
  config.cross_check = true;
  config.slots = 14;
  config.scenario.constants.budget = 13000.0;  // 2× coverage floor
  config.mobility.move_prob = 0.02;
  config.drift_prob = 0.0;
  config.chaos.first_slot = 6;

  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 14u);
  int kept_on_degraded = 0;
  for (const SlotReport& slot : report.slots) {
    SCOPED_TRACE("slot " + std::to_string(slot.slot));
    EXPECT_TRUE(slot.full_reroute_matches);
    EXPECT_EQ(slot.validator_violations, 0);
    if (slot.substrate_changed) {
      EXPECT_EQ(slot.mode, SlotMode::kReplan);
    }
    if (slot.mode != SlotMode::kReplan &&
        (slot.failed_nodes > 0 || slot.failed_links > 0)) {
      ++kept_on_degraded;
    }
  }
  expect_ledger_is_fold(report);
  EXPECT_GT(report.carried_slots + report.incremental_slots, 0);
  EXPECT_GT(report.chaos_degraded_slots, 0);
  EXPECT_GT(kept_on_degraded, 0);  // a carried plan outlived a failure
}

}  // namespace
}  // namespace socl::serve
