// Shared helpers for the figure-regeneration benches. Each bench binary is
// standalone: it builds the paper's scenario family, runs the algorithms,
// and prints the figure's series as a fixed-width table (CSV mirrors are
// written next to the binary when SOCL_BENCH_CSV is set).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "baselines/gcog.h"
#include "baselines/jdr.h"
#include "baselines/random_provision.h"
#include "serve/serving_loop.h"
#include "util/table.h"

namespace socl::bench {

/// Paper-default scenario family (Section V-A): eshopOnContainers catalog,
/// National-Stadium topology, cost budget in [5000, 8000].
inline core::ScenarioConfig paper_config(int nodes, int users,
                                         double budget = 6500.0) {
  core::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  config.constants.budget = budget;
  return config;
}

/// The canonical "day in the life" serving configuration shared by
/// bench_serving and bench_chaos: bench_chaos's no-chaos identity gate
/// byte-compares the two binaries' CSVs, so they must build the exact same
/// day from one definition.
inline serve::ServingConfig serving_day_config(bool tiny) {
  serve::ServingConfig config;
  if (tiny) {
    config.scenario.num_nodes = 8;
    config.scenario.num_users = 30;  // templates
    config.population = 2000;
    config.slot_horizon_s = 6.0;
    config.arrivals.mean_rate = 0.05;
    config.runtime.concurrency = 2;
    config.runtime.max_containers_per_pool = 4;
  } else {
    config.scenario.num_nodes = 16;
    config.scenario.num_users = 200;  // templates
    config.population = 1'000'000;
    config.slot_horizon_s = 30.0;
    config.arrivals.mean_rate = 1e-4;
    config.runtime.threads = 0;  // data plane on the whole shared pool
  }
  config.slots = 24;
  config.mobility.move_prob = 0.3;
  config.drift_prob = 0.02;
  config.diurnal_amplitude = 1.0;
  config.full_replan_period = 8;
  config.seed = 2026;
  return config;
}

/// Serves day `a` and day `b` and byte-compares their per-slot CSVs.
/// Prints "<label>: byte-identical" or "<label>: MISMATCH".
inline bool same_day_csv(const serve::ServingConfig& a,
                         const serve::ServingConfig& b,
                         const std::string& label) {
  const std::string csv_a = serve::ServingLoop(a).run().to_csv();
  const bool identical =
      !csv_a.empty() && csv_a == serve::ServingLoop(b).run().to_csv();
  std::cout << label << ": " << (identical ? "byte-identical" : "MISMATCH")
            << '\n';
  return identical;
}

/// True when every slot's cross-check lane was clean; prints each failing
/// slot. Slots before `first_gated_slot` whose re-route matched but whose
/// validator found violations are the healthy day's first solve, which can
/// overspend Eq. 5 at coverage-tight budgets: printed as a note, not failed.
inline bool cross_check_clean(const serve::ServingReport& report,
                              const std::string& label,
                              int first_gated_slot = 1) {
  bool clean = true;
  for (const serve::SlotReport& slot : report.slots) {
    if (slot.full_reroute_matches && slot.validator_violations == 0) continue;
    if (slot.full_reroute_matches && slot.slot < first_gated_slot) {
      std::cout << "(note: " << label << " baseline slot reports "
                << slot.validator_violations
                << " violation(s) — the known coverage-tight overspend of "
                   "the healthy day's first solve; reported, not gated)\n";
      continue;
    }
    std::cerr << label << ": cross-check failed at slot " << slot.slot
              << " (" << slot.validator_violations << " violations"
              << (slot.full_reroute_matches ? "" : ", re-route mismatch")
              << ")\n";
    clean = false;
  }
  return clean;
}

/// Prints the figure header banner.
inline void banner(const std::string& figure, const std::string& caption) {
  std::cout << "==============================================================="
               "=\n"
            << figure << ": " << caption << '\n'
            << "==============================================================="
               "=\n";
}

/// True when SOCL_BENCH_TINY is set: benches shrink their scenario/slot
/// counts to smoke-test size so CI can execute every binary end-to-end.
inline bool tiny_mode() { return std::getenv("SOCL_BENCH_TINY") != nullptr; }

/// Writes the CSV mirror when SOCL_BENCH_CSV is set in the environment.
inline void maybe_write_csv(const util::Table& table,
                            const std::string& name) {
  if (std::getenv("SOCL_BENCH_CSV") != nullptr) {
    table.write_csv(name + ".csv");
    std::cout << "(csv written to " << name << ".csv)\n";
  }
}

}  // namespace socl::bench
