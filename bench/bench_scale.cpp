// bench_scale — request-class aggregation and the SoA scoring kernel at
// population scale (DESIGN.md §4g/§4h, EXPERIMENTS.md "Scale sweep").
//
// Sweeps synthetic populations built by replicating a fixed template
// workload (replicate_requests), so the class count stays bounded while the
// user count grows 10k → 1M. Every point runs the DEFAULT pipeline
// (multi-start + relocation on) twice: class-aggregated scoring through the
// SoA kernel against the same solve on the legacy ChainRouter path. The
// default pipeline is the honest operating point — its dense-placement
// descent (multi-start) and polish are where scoring dominates, and
// ablating them would measure the kernel mostly on degenerate one-lane DPs.
//
// The table reports classes / compression (the socl.scale.* gauges), wall
// time per path, the kernel speedup, and whether objectives are
// bit-identical (they must be: the kernel evaluates the legacy DP's
// expressions in the legacy order, so any difference is a bug). `--check`
// turns the invariants into a nonzero exit status for CI:
//   * objectives bit-identical at every sweep point,
//   * compression >= 100x at 100k users on the default eshop catalog,
//   * kernel >= 1.2x faster than legacy at the largest point (tiny mode)
//     and >= 3x in the full sweep.
#include <cstring>
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
  double kernel_s = 0.0;        // default pipeline, SoA kernel
  double legacy_s = 0.0;        // default pipeline, legacy router
  double kernel_speedup = 0.0;  // legacy_s / kernel_s
  bool identical = false;
};

core::SoCLParams head_to_head_params(bool kernel, obs::ObsSink* sink) {
  core::SoCLParams params;
  params.sink = sink;
  params.combination.use_score_kernel = kernel;
  return params;
}

SweepRow run_point(int nodes, int num_users, int template_users) {
  auto scenario =
      core::make_scenario(bench::paper_config(nodes, template_users),
                          /*seed=*/11);
  scenario.set_requests(workload::replicate_requests(scenario.requests(),
                                                     num_users));
  SweepRow row;
  row.users = scenario.num_users();
  row.classes = scenario.classes().num_classes();
  row.compression = scenario.classes().compression_ratio();

  obs::Recorder recorder;
  util::WallTimer timer;
  const core::Solution kernel =
      core::SoCL(head_to_head_params(true, &recorder)).solve(scenario);
  row.kernel_s = timer.elapsed_seconds();
  timer.reset();
  const core::Solution legacy =
      core::SoCL(head_to_head_params(false, nullptr)).solve(scenario);
  row.legacy_s = timer.elapsed_seconds();
  row.kernel_speedup =
      row.kernel_s > 0.0 ? row.legacy_s / row.kernel_s : 0.0;
  row.identical =
      kernel.evaluation.objective == legacy.evaluation.objective &&
      kernel.evaluation.total_latency == legacy.evaluation.total_latency &&
      kernel.placement == legacy.placement;

  // The socl.scale.* / socl.kernel.* gauges must mirror the run.
  const auto snapshot = recorder.metrics().snapshot();
  const auto* gauge = snapshot.find("socl.scale.compression");
  if (gauge == nullptr || gauge->gauge != row.compression) {
    std::cout << "WARNING: socl.scale.compression gauge missing or stale\n";
    row.identical = false;
  }
  const auto* kernel_gauge = snapshot.find("socl.kernel.enabled");
  if (kernel_gauge == nullptr || kernel_gauge->gauge != 1.0) {
    std::cout << "WARNING: socl.kernel.enabled gauge missing or not set\n";
    row.identical = false;
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
                "counts, kernel vs legacy head-to-head");

  const bool tiny = bench::tiny_mode();
  const int nodes = tiny ? 8 : 12;
  // Template users per point: population / 200, capped at 5000 classes.
  const std::vector<int> sweep =
      tiny ? std::vector<int>{2'000, 10'000}
           : std::vector<int>{10'000, 100'000, 1'000'000};

  util::Table table({"users", "classes", "compression", "kernel_s",
                     "legacy_s", "kernel_speedup", "objectives"});
  bool all_identical = true;
  double last_kernel_speedup = 0.0;
  for (const int users : sweep) {
    const int templates = std::max(1, std::min(5'000, users / 200));
    const SweepRow row = run_point(nodes, users, templates);
    all_identical = all_identical && row.identical;
    last_kernel_speedup = row.kernel_speedup;
    table.row()
        .cell(std::to_string(row.users))
        .cell(std::to_string(row.classes))
        .num(row.compression, 1)
        .num(row.kernel_s, 3)
        .num(row.legacy_s, 3)
        .num(row.kernel_speedup, 1)
        .cell(row.identical ? "bit-identical" : "DIVERGED");
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
  // The kernel floor is intentionally below the measured margin
  // (EXPERIMENTS.md records the actual numbers) so CI-runner noise cannot
  // flake the job, while a real regression — lost batching, reintroduced
  // per-call allocation — still fails it.
  const double kernel_floor = tiny ? 1.2 : 3.0;
  const bool kernel_speedup_ok = last_kernel_speedup >= kernel_floor;
  std::cout << "\ncompression at 100k users / 500 templates: " << floor_ratio
            << "x (floor 100x) " << (compression_ok ? "PASS" : "FAIL")
            << "\nkernel vs legacy objectives: "
            << (all_identical ? "bit-identical PASS" : "DIVERGED FAIL")
            << "\nkernel speedup at largest point: " << last_kernel_speedup
            << "x (floor " << kernel_floor << "x) "
            << (kernel_speedup_ok ? "PASS" : "FAIL") << '\n';
  if (check && !(compression_ok && all_identical && kernel_speedup_ok)) {
    return 1;
  }
  return 0;
}
