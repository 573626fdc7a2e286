// bench_scale — request-class aggregation and the SoA scoring kernel at
// population scale (DESIGN.md §4g/§4h, EXPERIMENTS.md "Scale sweep").
//
// Sweeps synthetic populations built by replicating a fixed template
// workload (replicate_requests), so the class count stays bounded while the
// user count grows 10k → 1M. Every point runs the DEFAULT pipeline
// (multi-start + relocation on): its dense-placement descent (multi-start)
// and polish are where scoring dominates. The kernel's per-class ratio
// against its ChainRouter oracle is bench_micro's BM_KernelVsChainRouter;
// the bitwise agreement of the two is the differential kernel lane's.
//
// The table reports classes / compression (the socl.scale.* gauges), the
// ingest time of the population (Scenario::set_requests: validation, demand
// indices and class aggregation) and the solve's wall time, after one
// untimed warm-up pass of the first point. `--check` turns
// the invariants into a nonzero exit status for CI:
//   * the socl.scale.compression gauge mirrors every sweep point,
//   * compression >= 100x at 100k users on the default eshop catalog.
#include <cstring>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/socl.h"
#include "obs/recorder.h"
#include "util/timer.h"
#include "workload/request_classes.h"

namespace {

using namespace socl;

struct SweepRow {
  int users = 0;
  int classes = 0;
  double compression = 0.0;
  double aggregate_s = 0.0;  // Scenario::set_requests of the population
  double solve_s = 0.0;      // default pipeline
  bool gauge_ok = false;     // socl.scale.compression mirrors the run
};

SweepRow run_point(int nodes, int num_users, int template_users) {
  auto scenario =
      core::make_scenario(bench::paper_config(nodes, template_users),
                          /*seed=*/11);
  auto population =
      workload::replicate_requests(scenario.requests(), num_users);
  SweepRow row;
  util::WallTimer timer;
  scenario.set_requests(std::move(population));
  row.aggregate_s = timer.elapsed_seconds();
  row.users = scenario.num_users();
  row.classes = scenario.classes().num_classes();
  row.compression = scenario.classes().compression_ratio();

  obs::Recorder recorder;
  core::SoCLParams params;
  params.sink = &recorder;
  timer.reset();
  core::SoCL(params).solve(scenario);
  row.solve_s = timer.elapsed_seconds();

  const auto snapshot = recorder.metrics().snapshot();
  const auto* gauge = snapshot.find("socl.scale.compression");
  row.gauge_ok = gauge != nullptr && gauge->gauge == row.compression;
  if (!row.gauge_ok) {
    std::cout << "WARNING: socl.scale.compression gauge missing or stale\n";
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  bench::banner("bench_scale",
                "aggregation + SoA kernel: 10k -> 1M users at bounded class "
                "counts");

  const bool tiny = bench::tiny_mode();
  const int nodes = tiny ? 8 : 12;
  // Template users per point: population / 200, capped at 5000 classes.
  const std::vector<int> sweep =
      tiny ? std::vector<int>{2'000, 10'000}
           : std::vector<int>{10'000, 100'000, 1'000'000};

  const auto templates_for = [](int users) {
    return std::max(1, std::min(5'000, users / 200));
  };
  util::Table table(
      {"users", "classes", "compression", "aggregate_s", "solve_s"});
  bool gauges_ok = true;
  // One untimed pass of the first point: without it that point's timings
  // carry process warm-up (page faults, allocator growth, first pool).
  run_point(nodes, sweep.front(), templates_for(sweep.front()));
  for (const int users : sweep) {
    const SweepRow row = run_point(nodes, users, templates_for(users));
    gauges_ok = gauges_ok && row.gauge_ok;
    table.row()
        .cell(std::to_string(row.users))
        .cell(std::to_string(row.classes))
        .num(row.compression, 1)
        .num(row.aggregate_s, 3)
        .num(row.solve_s, 3);
  }
  table.print(std::cout);
  bench::maybe_write_csv(table, "scale_sweep");

  // Compression floor on the paper's default workload: 100k generated-then-
  // replicated users over 500 templates must compress >= 100x. Aggregation
  // only (no solve), so this runs even in tiny mode.
  auto floor_scenario =
      core::make_scenario(bench::paper_config(nodes, 500), /*seed=*/23);
  floor_scenario.set_requests(
      workload::replicate_requests(floor_scenario.requests(), 100'000));
  const double floor_ratio = floor_scenario.classes().compression_ratio();

  const bool compression_ok = floor_ratio >= 100.0;
  std::cout << "\ncompression at 100k users / 500 templates: " << floor_ratio
            << "x (floor 100x) " << (compression_ok ? "PASS" : "FAIL")
            << "\nsocl.scale.compression gauges: "
            << (gauges_ok ? "PASS" : "FAIL") << '\n';
  if (check && !(compression_ok && gauges_ok)) return 1;
  return 0;
}
