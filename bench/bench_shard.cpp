// bench_shard — the geo-sharded decomposition solver over multi-metro
// substrates (DESIGN.md §4j, EXPERIMENTS.md "Metro sweep").
//
// Sweeps 1 → 16 metros (tiny mode: 1 → 2) with a fixed per-metro node count
// and an aggregated population that scales with the metro count — the full
// sweep tops out above 1M users via template replication, so the request-
// class layer (§4g) does the heavy lifting inside every shard. Each point
// runs the coordinated dual-ascent solve and reports shards, priced
// iterations, the relative duality gap, the final budget price μ, spend vs
// the global budget K^max of Eq. (5), and wall time; small points also run
// the unsharded SoCL solve head-to-head for a speedup column.
//
// `--check` turns the invariants into a nonzero exit for CI:
//   * the 1-metro point is bit-identical to the unsharded solve —
//     objectives, placements, and every user route (the single-shard
//     identity guarantee of the decomposition);
//   * every multi-metro point converges to a relative duality gap <= 5%;
//   * every point's recombined solution passes the independent
//     SolutionValidator audit with zero Eq. (5) budget violations;
//   * the socl.shard.* gauges (docs/METRICS.md) mirror the run.
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/socl.h"
#include "net/multi_metro.h"
#include "obs/recorder.h"
#include "shard/sharded_solver.h"
#include "util/timer.h"
#include "validate/validator.h"
#include "workload/request_gen.h"

namespace {

using namespace socl;

struct SweepRow {
  int metros = 0;
  int nodes = 0;
  int users = 0;
  int iterations = 0;
  double gap = 0.0;
  double price = 0.0;
  double spend = 0.0;
  double budget = 0.0;
  bool fallback = false;
  double sharded_s = 0.0;
  double unsharded_s = 0.0;  // 0 when the head-to-head was skipped
  bool identical = true;     // only meaningful at 1 metro
  int budget_violations = 0;
  bool gauges_ok = true;
  /// Price-search stop reasons (socl.shard.stop.*), in kStopReasons order.
  std::vector<std::int64_t> stops;
};

constexpr const char* kStopReasons[] = {"certificate", "bracket", "cap",
                                        "single_shard"};

/// Builds the M-metro scenario: stitched substrate, eshop catalog, a
/// template workload generated over the whole network and replicated to the
/// aggregated population. The budget scales linearly with the metro count
/// (each metro carries one paper-default deployment's worth of budget).
core::Scenario make_metro_scenario(const net::MultiMetroTopology& topo,
                                   int num_users, double budget,
                                   std::uint64_t seed) {
  workload::RequestGenConfig gen;
  gen.num_users = std::max(1, std::min(num_users, 400 * topo.metros));
  auto requests = workload::generate_requests(
      topo.network, workload::eshop_catalog(), gen, seed);
  if (num_users > gen.num_users) {
    requests = workload::replicate_requests(requests, num_users);
  }
  core::ProblemConstants constants;
  constants.budget = budget;
  return core::Scenario(topo.network, workload::eshop_catalog(),
                        std::move(requests), constants);
}

bool routes_identical(const core::Assignment& a, const core::Assignment& b) {
  if (a.num_users() != b.num_users()) return false;
  for (int h = 0; h < a.num_users(); ++h) {
    const auto ra = a.user_route(h);
    const auto rb = b.user_route(h);
    if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) return false;
  }
  return true;
}

SweepRow run_point(int metros, int nodes_per_metro, int num_users,
                   bool run_unsharded) {
  net::MultiMetroConfig config;
  config.metros = metros;
  config.metro.num_nodes = nodes_per_metro;
  const net::MultiMetroTopology topo = net::make_multi_metro(config, /*seed=*/7);
  const double budget = 6000.0 * metros;
  const core::Scenario scenario =
      make_metro_scenario(topo, num_users, budget, /*seed=*/11);

  SweepRow row;
  row.metros = metros;
  row.nodes = scenario.num_nodes();
  row.users = scenario.num_users();
  row.budget = budget;

  const shard::ShardPlan plan = shard::plan_from_metros(topo.metro_of, metros);
  obs::Recorder recorder;
  shard::ShardedParams params;
  params.sink = &recorder;
  shard::ShardedSoCL solver(scenario, plan, params);
  const shard::ShardedSolution sharded = solver.solve();
  row.sharded_s = sharded.runtime_seconds;
  row.iterations = sharded.iterations;
  row.gap = sharded.duality_gap;
  row.price = sharded.price;
  row.spend = sharded.spend;
  row.fallback = sharded.used_quota_fallback;

  // Independent audit of the recombined global solution: the budget rows of
  // the report are the Eq. (5) check the issue's acceptance gate names.
  if (sharded.assignment) {
    const validate::Report report = validate::SolutionValidator(scenario)
                                        .validate(sharded.placement,
                                                  *sharded.assignment);
    row.budget_violations = report.count(validate::Constraint::kBudget);
  } else {
    row.budget_violations = 1;  // unroutable recombination: treat as failure
  }

  if (run_unsharded) {
    util::WallTimer timer;
    const core::Solution unsharded = core::SoCL().solve(scenario);
    row.unsharded_s = timer.elapsed_seconds();
    if (metros == 1) {
      row.identical =
          sharded.evaluation.objective == unsharded.evaluation.objective &&
          sharded.evaluation.total_latency ==
              unsharded.evaluation.total_latency &&
          sharded.placement == unsharded.placement &&
          sharded.assignment.has_value() &&
          unsharded.assignment.has_value() &&
          routes_identical(*sharded.assignment, *unsharded.assignment);
    }
  }

  const auto snapshot = recorder.metrics().snapshot();
  for (const char* reason : kStopReasons) {
    const auto* entry =
        snapshot.find(std::string("socl.shard.stop.") + reason);
    row.stops.push_back(entry != nullptr ? entry->counter : 0);
  }
  for (const char* gauge : {"socl.shard.shards", "socl.shard.iterations",
                            "socl.shard.duality_gap", "socl.shard.price",
                            "socl.shard.spend"}) {
    if (snapshot.find(gauge) == nullptr) {
      std::cout << "WARNING: gauge " << gauge << " missing\n";
      row.gauges_ok = false;
    }
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  bench::banner("bench_shard",
                "geo-sharded decomposition: 1 -> 16 metros under one global "
                "budget, dual ascent on the budget price");

  const bool tiny = bench::tiny_mode();
  const int nodes_per_metro = tiny ? 8 : 12;
  // Aggregated population grows with the metro count; the full sweep ends
  // above 1M users (replicated from a bounded template set, §4g). The tiny
  // sweep keeps a 4-metro point so CI exercises a genuinely multi-shard
  // price search, not just the 2-shard minimum.
  const std::vector<int> sweep =
      tiny ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8, 16};
  const int users_per_metro = tiny ? 300 : 70'000;

  util::Table table({"metros", "nodes", "users", "iters", "gap", "price",
                     "spend", "budget", "mode", "sharded_s", "unsharded_s",
                     "identity"});
  bool identity_ok = true;
  bool gaps_ok = true;
  bool budget_ok = true;
  bool gauges_ok = true;
  std::vector<std::int64_t> stops(std::size(kStopReasons), 0);
  for (const int metros : sweep) {
    // The unsharded head-to-head beyond a few metros costs more than the
    // rest of the sweep combined (a 4-metro tiny point alone is ~80s); the
    // speedup column stops at 2 metros in tiny mode and 4 in full mode.
    const bool run_unsharded = metros <= (tiny ? 2 : 4);
    const SweepRow row =
        run_point(metros, nodes_per_metro, users_per_metro * metros,
                  run_unsharded);
    identity_ok = identity_ok && row.identical;
    if (row.metros > 1) gaps_ok = gaps_ok && row.gap <= 0.05;
    budget_ok = budget_ok && row.budget_violations == 0;
    gauges_ok = gauges_ok && row.gauges_ok;
    for (std::size_t i = 0; i < stops.size(); ++i) stops[i] += row.stops[i];
    table.row()
        .integer(row.metros)
        .integer(row.nodes)
        .integer(row.users)
        .integer(row.iterations)
        .num(row.gap, 4)
        .num(row.price, 3)
        .num(row.spend, 0)
        .num(row.budget, 0)
        .cell(row.fallback ? "quota" : "priced")
        .num(row.sharded_s, 3)
        .num(row.unsharded_s, 3)
        .cell(row.metros == 1
                  ? (row.identical ? "bit-identical" : "DIVERGED")
                  : "-");
  }
  table.print(std::cout);
  bench::maybe_write_csv(table, "shard_sweep");

  // Why each price search ended (summary only; the CSV keeps its columns).
  std::cout << "\nprice-search stops:";
  for (std::size_t i = 0; i < stops.size(); ++i) {
    std::cout << ' ' << kStopReasons[i] << ' ' << stops[i];
  }
  std::cout << '\n';

  std::cout << "\nsingle-shard vs unsharded: "
            << (identity_ok ? "bit-identical PASS" : "DIVERGED FAIL")
            << "\nduality gap <= 5% on every multi-metro point: "
            << (gaps_ok ? "PASS" : "FAIL")
            << "\nzero Eq. (5) budget violations (SolutionValidator): "
            << (budget_ok ? "PASS" : "FAIL")
            << "\nsocl.shard.* gauges present: "
            << (gauges_ok ? "PASS" : "FAIL") << '\n';
  if (check && !(identity_ok && gaps_ok && budget_ok && gauges_ok)) {
    return 1;
  }
  return 0;
}
