// Chaos availability study: the serving day of bench_serving made
// unreliable — Poisson node/link failures with log-normal repairs and a
// flash-crowd arrival spike — served under three control policies that
// differ only in how eagerly they replan. The figure is the degradation /
// recovery story: per-slot SLO attainment and cold-start rate as failures
// land and repairs restore the substrate, plus a per-policy availability
// summary (SLO over degraded slots vs the whole day, users re-homed,
// replan counts). The cross-check lane is on for every policy: every slot
// of every chaotic day passes the independent constraint validator and the
// kernel re-route equality check.
//
// `--check` gates the structural claims: (1) the chaotic day is
// bit-deterministic (run twice, CSV byte-diffed); (2) every slot is
// validator-clean; (3) the schedule is non-trivial — the day actually
// contains failures, repairs, and at least one flash crowd; (4) the
// no-chaos identity — with `chaos.enabled = false` the day's CSV is
// byte-identical to the healthy day's, even with every chaos rate cranked
// (the flag fully gates the lane). SOCL_BENCH_TINY shrinks the population;
// SOCL_BENCH_CSV writes bench_chaos_<policy>.csv and bench_chaos_nochaos.csv
// (CI byte-diffs the latter against bench_serving.csv).
//
// The static drill closes the run: one-shot failure plans of rising
// severity on a fixed 12-node scenario, each solved from scratch, and after
// a 2-node failure the warm-start repair of core::OnlineSoCL against a full
// re-solve. It is printed only and gates nothing.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/online.h"
#include "net/failures.h"
#include "serve/serving_loop.h"
#include "util/timer.h"
#include "workload/mobility.h"

namespace socl {
namespace {

serve::ServingConfig chaotic_day_config(bool tiny) {
  serve::ServingConfig config = bench::serving_day_config(tiny);
  config.cross_check = true;
  config.chaos.enabled = true;
  // Rates tuned so the 24-slot day reliably contains all three processes:
  // several failures, repairs landing before day end, and a flash crowd.
  config.chaos.node_failure_rate = 0.06;
  config.chaos.link_failure_rate = 0.03;
  config.chaos.repair_median_slots = 3.0;
  config.chaos.repair_sigma = 0.5;
  config.chaos.flash_crowd_rate = 0.2;
  config.chaos.flash_crowd_multiplier = 3.0;
  config.chaos.flash_crowd_slots = 2;
  return config;
}

struct Policy {
  const char* name;
  int full_replan_period;
  double replan_weight_threshold;
};

// Reactive replans only when drift / a substrate change forces it;
// periodic keeps bench_serving's 8-slot floor; eager adds a tight floor
// and a hair-trigger drift threshold (the replan-heavy upper bound).
constexpr Policy kPolicies[] = {
    {"reactive", 0, 0.05},
    {"periodic", 8, 0.05},
    {"eager", 4, 0.01},
};

void print_day(const serve::ServingReport& report) {
  util::Table table({"slot", "mode", "fail_n", "fail_l", "rehomed", "flash",
                     "slo", "cold_rate", "churn", "requests", "violations"});
  for (const serve::SlotReport& slot : report.slots) {
    table.row()
        .integer(slot.slot)
        .cell(serve::slot_mode_name(slot.mode))
        .integer(slot.failed_nodes)
        .integer(slot.failed_links)
        .integer(slot.users_rehomed)
        .num(slot.flash_multiplier, 1)
        .num(slot.slo_attainment, 4)
        .num(slot.cold_start_rate, 4)
        .integer(slot.placement_churn)
        .integer(slot.requests_completed)
        .integer(slot.validator_violations);
  }
  table.print(std::cout);
}

/// Gate 1: the chaotic day run twice must produce byte-identical CSVs —
/// the whole lane (schedule, substrate swaps, re-homing, DES) is a pure
/// function of (config, seed).
bool determinism_gate(const serve::ServingConfig& config) {
  return bench::same_day_csv(config, config,
                             "determinism gate (chaotic day run twice)");
}

/// Gate 3: the day is a real availability study, not a vacuously healthy
/// one — failures happened, repairs happened, a flash crowd happened.
bool schedule_gate(const serve::ServingReport& report) {
  const bool failures =
      report.chaos_node_failures + report.chaos_link_failures > 0;
  const bool repairs = report.chaos_repairs > 0;
  const bool flash = report.chaos_flash_slots > 0;
  const bool degraded = report.chaos_degraded_slots > 0;
  std::cout << "schedule gate: failures="
            << report.chaos_node_failures + report.chaos_link_failures
            << " repairs=" << report.chaos_repairs
            << " flash_slots=" << report.chaos_flash_slots
            << " degraded_slots=" << report.chaos_degraded_slots << " -> "
            << (failures && repairs && flash && degraded ? "non-trivial"
                                                         : "TRIVIAL")
            << '\n';
  return failures && repairs && flash && degraded;
}

/// Gate 4: `chaos.enabled` fully gates the lane — a config with every
/// chaos rate cranked but the flag off serves a day whose CSV is
/// byte-identical to the plain healthy day's.
bool no_chaos_identity_gate(bool tiny) {
  serve::ServingConfig healthy = bench::serving_day_config(tiny);
  serve::ServingConfig off = chaotic_day_config(tiny);
  off.cross_check = healthy.cross_check;
  off.chaos.enabled = false;

  return bench::same_day_csv(
      healthy, off, "no-chaos identity gate (chaos off vs healthy day CSV)");
}

/// The static drill: failure severity sweep on a fixed scenario, then
/// warm-start recovery vs a full re-solve after a 2-node failure.
void static_drill() {
  const auto config = bench::paper_config(12, 50, 7000.0);
  const auto healthy = core::make_scenario(config, 404);
  const auto baseline = baselines::SoCLAlgorithm().solve(healthy);

  // The degraded copy of `healthy` under `plan`. Displaced users re-attach
  // (users on dead nodes AND users whose alive attach node lost its last
  // usable link); `displaced` counts them.
  const auto degrade = [&](const net::FailurePlan& plan, int& displaced) {
    auto degraded_net = net::apply_failures(healthy.network(), plan);
    auto requests = healthy.requests();
    displaced =
        workload::reattach_users(degraded_net, plan.failed_nodes, requests);
    return core::Scenario(std::move(degraded_net), healthy.catalog(),
                          std::move(requests), healthy.constants());
  };

  util::Table table({"failed_nodes", "failed_links", "objective",
                     "vs_healthy", "mean_latency_s", "displaced_users",
                     "feasible"});
  table.row()
      .integer(0)
      .integer(0)
      .num(baseline.evaluation.objective, 1)
      .num(1.0, 3)
      .num(baseline.evaluation.mean_latency, 3)
      .integer(0)
      .cell(baseline.evaluation.feasible() ? "yes" : "NO");
  for (const auto& [node_failures, link_rate] :
       std::vector<std::pair<int, double>>{
           {0, 0.1}, {0, 0.25}, {1, 0.0}, {2, 0.0}, {2, 0.15}}) {
    util::Rng rng(500 + static_cast<std::uint64_t>(node_failures * 100 +
                                                   link_rate * 1000));
    const auto plan = net::random_failures(healthy.network(), link_rate,
                                           node_failures, rng);
    int displaced = 0;
    const core::Scenario degraded = degrade(plan, displaced);
    const auto solution = baselines::SoCLAlgorithm().solve(degraded);
    table.row()
        .integer(static_cast<long long>(plan.failed_nodes.size()))
        .integer(static_cast<long long>(plan.failed_links.size()))
        .num(solution.evaluation.objective, 1)
        .num(solution.evaluation.objective / baseline.evaluation.objective, 3)
        .num(solution.evaluation.mean_latency, 3)
        .integer(displaced)
        .cell(solution.evaluation.feasible() ? "yes" : "NO");
  }
  table.print(std::cout);

  // Recovery: prime the controller on the healthy network, then hit it with
  // the degraded slot. Failed nodes are husks (zero storage), so the warm
  // repair must migrate their instances away.
  util::Rng rng(911);
  int displaced = 0;
  const core::Scenario degraded =
      degrade(net::random_failures(healthy.network(), 0.0, 2, rng), displaced);
  core::OnlineSoCL online;
  online.step(healthy);
  core::OnlineStepStats stats;
  const auto warm = online.step(degraded, &stats);
  const auto fresh = baselines::SoCLAlgorithm().solve(degraded);
  util::Table recovery({"recovery", "objective", "runtime_ms", "churn",
                        "feasible"});
  recovery.row()
      .cell("warm-start repair")
      .num(warm.evaluation.objective, 1)
      .num(warm.runtime_seconds * 1e3, 1)
      .integer(stats.churn)
      .cell(warm.evaluation.feasible() ? "yes" : "NO");
  recovery.row()
      .cell("full re-solve")
      .num(fresh.evaluation.objective, 1)
      .num(fresh.runtime_seconds * 1e3, 1)
      .cell("-")
      .cell(fresh.evaluation.feasible() ? "yes" : "NO");
  std::cout << "\nrecovery after a 2-node failure\n";
  recovery.print(std::cout);
  std::cout << "\nExpected shape: budget/storage feasibility holds at every "
               "severity and the objective\ndegrades sub-linearly while "
               "survivors stay connected; at the harshest severities\nsome "
               "deadlines calibrated on the healthy substrate become "
               "physically unmeetable\n(the feasible column reports it "
               "honestly). Warm-start repair recovers most of the\nfull "
               "re-solve's quality at a fraction of the decision latency.\n";
}

}  // namespace

int run(bool check) {
  const bool tiny = bench::tiny_mode();
  const serve::ServingConfig base = chaotic_day_config(tiny);
  bench::banner("Chaos availability study",
                "failures + repairs + flash crowds over the serving day, "
                "population " +
                    std::to_string(base.population) + " users, " +
                    std::to_string(base.slots) + " slots, 3 policies");

  util::Table summary({"policy", "replans", "degraded_slots", "failures",
                       "repairs", "rehomed", "flash_slots", "slo_day",
                       "slo_degraded", "cold_rate", "churn"});
  std::vector<serve::ServingReport> reports;
  for (const Policy& policy : kPolicies) {
    serve::ServingConfig config = base;
    config.full_replan_period = policy.full_replan_period;
    config.replan_weight_threshold = policy.replan_weight_threshold;

    util::WallTimer timer;
    const serve::ServingReport report = serve::ServingLoop(config).run();
    std::cout << "\npolicy '" << policy.name << "' (wall "
              << timer.elapsed_seconds() << " s):\n";
    print_day(report);
    std::cout << "summary: " << report.summary() << '\n';

    summary.row()
        .cell(policy.name)
        .integer(report.replans)
        .integer(report.chaos_degraded_slots)
        .integer(report.chaos_node_failures + report.chaos_link_failures)
        .integer(report.chaos_repairs)
        .integer(report.chaos_users_rehomed)
        .integer(report.chaos_flash_slots)
        .num(report.slo_attainment(), 4)
        .num(report.degraded_slo_attainment(), 4)
        .num(report.cold_start_rate(), 4)
        .integer(report.churn_instances);
    if (std::getenv("SOCL_BENCH_CSV") != nullptr) {
      const std::string path =
          "bench_chaos_" + std::string(policy.name) + ".csv";
      report.write_csv(path);
      std::cout << "(csv written to " << path << ")\n";
    }
    reports.push_back(report);
  }

  std::cout << "\navailability summary (degradation/recovery per policy):\n";
  summary.print(std::cout);
  std::cout << "\nExpected shape: every policy stays validator-clean on every "
               "slot; SLO over degraded\nslots trails the whole-day SLO and "
               "eager replanning narrows the gap at the price of\nmore churn; "
               "repairs show up as cold-start spikes (drained pools reboot) "
               "that the\npre-warm lookahead partially absorbs.\n";

  if (std::getenv("SOCL_BENCH_CSV") != nullptr) {
    // The healthy-day mirror CI byte-diffs against bench_serving.csv.
    serve::ServingConfig off = chaotic_day_config(tiny);
    off.cross_check = false;
    off.chaos.enabled = false;
    serve::ServingLoop(off).run().write_csv("bench_chaos_nochaos.csv");
    std::cout << "(csv written to bench_chaos_nochaos.csv)\n";
  }

  bench::banner("Static failure drill",
                "objective/latency degradation under one-shot failures (12 "
                "nodes, 50 users) and warm-start recovery");
  static_drill();

  // Slot 1 is the healthy baseline solve; the gate starts at slot 2, the
  // first slot the chaos lane influences.
  bool ok = true;
  for (std::size_t p = 0; p < reports.size(); ++p) {
    ok = bench::cross_check_clean(reports[p], kPolicies[p].name, 2) && ok;
  }
  ok = schedule_gate(reports[1]) && ok;  // the 'periodic' reference day
  ok = determinism_gate(base) && ok;
  ok = no_chaos_identity_gate(tiny) && ok;
  if (check) {
    std::cout << "--check: " << (ok ? "all lanes clean" : "FAILED") << '\n';
    return ok ? 0 : 1;
  }
  if (!ok) std::cout << "(warning: a chaos lane reported a violation)\n";
  return 0;
}

}  // namespace socl

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::string(argv[1]) == "--check";
  return socl::run(check);
}
