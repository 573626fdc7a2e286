// "Day in the life" serving bench: drives the online serving loop
// (src/serve/) over a simulated day — diurnal + bursty arrival intensity,
// mobility churn, and workload drift — at an aggregated million-user
// population, and reports per-slot control decisions, SLO attainment,
// cold-start rate, placement churn, and control-plane latency.
//
// The interesting number is the recompute fraction: with request-class
// aggregation, a dense population keeps the class set nearly stable across
// slots even though individual users churn, so most slots carry the
// placement instead of re-solving.
//
// Part 2 is the sharded head-to-head: the same multi-metro day —
// cross-metro commuters re-homing between shards — served once on the
// replan coordinator's single-shard plan (one warm rung on the whole
// substrate) and once on its per-metro plan (warm rungs at the frozen budget
// price), with the cross-check lane on. The headline is the mean per-slot
// control latency ratio; `--check` gates the structural
// claims instead: zero validator violations and a clean kernel re-route match
// on every sharded slot, and a 1-metro sharded day whose CSV is
// byte-identical to the unsharded loop's.
//
// Part 3 is the warm-vs-full table: a compact day served under the default
// ladder, with a replan every slot, and with a full re-solve every slot —
// what the warm-started controller saves in control time and churn, and
// what it gives up in objective. It is printed only.
//
// SOCL_BENCH_TINY shrinks the population to smoke-test size (CI runs it
// twice and diffs the CSVs for bit-identical determinism); SOCL_BENCH_CSV
// writes the per-slot series to bench_serving.csv (legacy day) and
// bench_serving_sharded.csv (sharded multi-metro day).
#include <algorithm>
#include <iostream>
#include <string>
#include <utility>

#include "bench_common.h"
#include "serve/serving_loop.h"
#include "util/timer.h"

namespace socl {
namespace {

/// The multi-metro day of the head-to-head: same knobs as the legacy day,
/// the substrate swapped for `metros` stitched metros and a cross-metro
/// re-homing process layered on the mobility churn. The budget scales with
/// the metro count: each shard must cover its own used microservices, so
/// the decomposition's coverage floor is ~metros × the single-metro one.
serve::ServingConfig metro_config(bool tiny, int metros) {
  serve::ServingConfig config = bench::serving_day_config(tiny);
  config.metros = metros;
  config.scenario.num_nodes = tiny ? 6 : 8;  // per metro
  config.scenario.constants.budget = 6500.0 * metros;
  if (metros > 1) config.cross_metro_prob = 0.05;
  config.cross_check = true;
  return config;
}

void print_day(const serve::ServingReport& report) {
  util::Table table({"slot", "mode", "classes", "recomp", "moved%", "churn",
                     "prewarm", "requests", "slo", "cold_rate", "intensity",
                     "shards", "repriced", "control_ms"});
  for (const serve::SlotReport& slot : report.slots) {
    table.row()
        .integer(slot.slot)
        .cell(serve::slot_mode_name(slot.mode))
        .integer(slot.classes)
        .integer(slot.classes_recomputed)
        .num(100.0 * slot.moved_weight_fraction, 2)
        .integer(slot.placement_churn)
        .integer(slot.prewarm_ahead_hits)
        .integer(slot.requests_completed)
        .num(slot.slo_attainment, 4)
        .num(slot.cold_start_rate, 4)
        .num(slot.arrival_intensity, 3)
        .integer(slot.shards_resolved)
        .integer(slot.repriced ? 1 : 0)
        .num(slot.control_s * 1e3, 2);
  }
  table.print(std::cout);
}

/// The compact day of the identity lane and the warm-vs-full table.
/// Exactness does not depend on scale, so it stays compact in full mode too.
serve::ServingConfig compact_day_config() {
  serve::ServingConfig config;
  config.scenario.num_nodes = 8;
  config.scenario.num_users = 30;
  config.population = 2000;
  config.slots = 12;
  config.slot_horizon_s = 6.0;
  config.arrivals.mean_rate = 0.05;
  config.mobility.move_prob = 0.3;
  config.drift_prob = 0.02;
  config.full_replan_period = 8;
  config.seed = 2026;
  return config;
}

/// The identity lane: a compact 1-metro day served unsharded and sharded
/// must produce byte-identical CSVs (both plans are the one shard aliasing
/// the loop's scenario, which short-circuits at μ = 0).
bool identity_lane() {
  serve::ServingConfig base = compact_day_config();
  base.metros = 1;
  serve::ServingConfig sharded = base;
  sharded.sharded = true;
  return bench::same_day_csv(
      base, sharded, "identity lane (1 metro, sharded vs unsharded CSV)");
}

/// Warm-started control vs replanning and full re-solves on the compact
/// day: the default ladder, a replan every slot (warm OnlineSoCL step), and
/// a full SoCL re-solve every slot.
void warm_vs_full_table() {
  serve::ServingConfig ladder = compact_day_config();
  serve::ServingConfig replan = ladder;
  replan.full_replan_period = 1;
  serve::ServingConfig resolve = replan;
  resolve.online.full_resolve_period = 1;

  util::Table table({"controller", "replans", "mean_objective",
                     "mean_control_ms", "mean_churn", "max_churn",
                     "prewarm_hits", "cold_rate", "slo"});
  for (const auto& [name, config] :
       {std::pair{"default ladder", &ladder},
        std::pair{"replan every slot", &replan},
        std::pair{"full re-solve every slot", &resolve}}) {
    const serve::ServingReport report = serve::ServingLoop(*config).run();
    double objective = 0.0;
    int max_churn = 0;
    for (const serve::SlotReport& slot : report.slots) {
      objective += slot.objective;
      max_churn = std::max(max_churn, slot.placement_churn);
    }
    const auto slots = static_cast<double>(report.slots.size());
    table.row()
        .cell(name)
        .integer(report.replans)
        .num(objective / slots, 1)
        .num(report.control_s_total / slots * 1e3, 2)
        .num(report.churn_instances / slots, 2)
        .integer(max_churn)
        .integer(report.prewarm_ahead_hits)
        .num(report.cold_start_rate(), 4)
        .num(report.slo_attainment(), 4);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: the default ladder spends the least control "
               "time and churn and\ncarries the highest objective; warm "
               "replans every slot lower the objective at\nabout 10x the "
               "control time; full re-solves every slot reach the lowest "
               "objective\nbut churn an order of magnitude more instances, "
               "which the cold rate pays for.\n";
}

}  // namespace

int run(bool check) {
  const bool tiny = bench::tiny_mode();
  const serve::ServingConfig config = bench::serving_day_config(tiny);
  bench::banner("Serving day",
                "online control plane over a diurnal day, population " +
                    std::to_string(config.population) + " users, " +
                    std::to_string(config.slots) + " slots");

  util::WallTimer timer;
  const serve::ServingReport report = serve::ServingLoop(config).run();
  print_day(report);
  std::cout << "\nday summary: " << report.summary() << '\n'
            << "control plane total: " << report.control_s_total << " s, "
            << "wall total: " << timer.elapsed_seconds() << " s\n";

  if (std::getenv("SOCL_BENCH_CSV") != nullptr) {
    report.write_csv("bench_serving.csv");
    std::cout << "(csv written to bench_serving.csv)\n";
  }

  // ---- Part 2: sharded vs unsharded head-to-head on the multi-metro day.
  const int metros = tiny ? 2 : 4;
  bench::banner("Sharded serving head-to-head",
                std::to_string(metros) +
                    " metros, cross-metro commuters, population " +
                    std::to_string(config.population) +
                    " users; replan plan: single shard vs one per metro");

  const serve::ServingConfig unsharded_config = metro_config(tiny, metros);
  serve::ServingConfig sharded_config = unsharded_config;
  sharded_config.sharded = true;

  util::WallTimer unsharded_timer;
  const serve::ServingReport unsharded =
      serve::ServingLoop(unsharded_config).run();
  const double unsharded_wall = unsharded_timer.elapsed_seconds();

  util::WallTimer sharded_timer;
  const serve::ServingReport sharded =
      serve::ServingLoop(sharded_config).run();
  const double sharded_wall = sharded_timer.elapsed_seconds();

  std::cout << "\nsharded day (per-slot):\n";
  print_day(sharded);
  std::cout << "\nunsharded day summary: " << unsharded.summary() << '\n'
            << "sharded day summary:   " << sharded.summary() << '\n';

  const auto slots = static_cast<double>(sharded.slots.size());
  const double unsharded_mean = unsharded.control_s_total / slots;
  const double sharded_mean = sharded.control_s_total / slots;
  std::cout << "mean control latency/slot: unsharded "
            << unsharded_mean * 1e3 << " ms, sharded " << sharded_mean * 1e3
            << " ms, ratio " << unsharded_mean / sharded_mean << "x\n"
            << "wall: unsharded " << unsharded_wall << " s, sharded "
            << sharded_wall << " s\n";

  if (std::getenv("SOCL_BENCH_CSV") != nullptr) {
    sharded.write_csv("bench_serving_sharded.csv");
    std::cout << "(csv written to bench_serving_sharded.csv)\n";
  }

  // ---- Part 3: warm-started control vs replanning and full re-solves.
  bench::banner("Warm vs full",
                "compact day (8 nodes, 30 templates, 2000 users, 12 slots): "
                "default ladder vs replan / full re-solve every slot");
  warm_vs_full_table();

  // The gated claims are the sharded ones: a violation-free, cross-check
  // clean sharded day and the 1-metro identity. The unsharded control lane
  // is reported but not gated — the single-address-space greedy can
  // marginally overspend Eq. 5 at coverage-tight budgets (it deploys
  // coverage first and has no price to shed against), which is precisely
  // the failure mode the coordinator's dual pricing avoids.
  bool ok = true;
  ok = bench::cross_check_clean(sharded, "sharded day") && ok;
  ok = identity_lane() && ok;
  if (!bench::cross_check_clean(unsharded, "unsharded day")) {
    std::cout << "(note: unsharded control-lane violations are reported, "
                 "not gated)\n";
  }
  if (check) {
    // The control-latency ratio is hardware-dependent and stays a reported
    // number; the structural claims gate.
    std::cout << "--check: " << (ok ? "all lanes clean" : "FAILED") << '\n';
    return ok ? 0 : 1;
  }
  if (!ok) std::cout << "(warning: a sharded serving lane reported a violation)\n";
  return 0;
}

}  // namespace socl

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::string(argv[1]) == "--check";
  return socl::run(check);
}
