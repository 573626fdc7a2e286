// socl_perfbench — end-to-end and per-layer benchmark program for SoCL.
//
//   socl_perfbench --workload <serving_day|chaos_sharded>
//                  --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// One process drives one workload through the public API and prints, as its
// last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics (no observability sink anywhere);
// --trace 1 attaches an obs::Recorder and reports the per-layer metrics.
// --tiny shrinks every workload to a seconds-long smoke size (self-test).
// perfbench/README.md explains the workloads, the metrics and the
// steadiness rules; perfbench/run.py builds this program and runs it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/recorder.h"
#include "serve/serving_loop.h"
#include "validate/validator.h"
#include "util/rng.h"
#include "workload/mobility.h"
#include "workload/request_classes.h"

namespace {

using namespace socl;
using Clock = std::chrono::steady_clock;

/// Every thread pool is pinned to this size. 0 (= all cores) makes timings
/// depend on whatever else the host runs; 1 drifts with CPU frequency.
constexpr int kThreads = 2;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(values.begin(),
                                          values.begin() +
                                              static_cast<long>(mid)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// splitmix64: derives independent per-purpose seeds from --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

/// What one run reports: the JSON result plus human-readable context.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    check(std::isfinite(value), name + " is not finite");
    metrics.push_back({name, {value, unit}});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::cerr << "perfbench: CHECK FAILED: " << what << '\n';
    }
  }
  void print() const {
    for (const auto& [name, value] : metrics) {
      std::printf("  %-32s %.6g %s\n", name.c_str(), value.first,
                  value.second.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double v = metrics[i].second.first;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(),
                  std::isfinite(v) ? v : -1.0,
                  metrics[i].second.second.c_str());
    }
    std::printf("}}\n");
  }
};

void info(const std::string& key, const std::string& value) {
  std::cout << "info " << key << " = " << value << '\n';
}

// ---------------------------------------------------------------- tracing --

/// Read-only view over a Recorder snapshot with zero defaults for metrics
/// the run never emitted (a layer the workload does not exercise).
struct Harvest {
  obs::MetricsSnapshot snap;

  std::int64_t counter(const char* name) const {
    const auto* e = snap.find(name);
    return e != nullptr ? e->counter : 0;
  }
  double hist_sum(const char* name) const {
    const auto* e = snap.find(name);
    return e != nullptr ? e->histogram.sum : 0.0;
  }
  std::int64_t hist_count(const char* name) const {
    const auto* e = snap.find(name);
    return e != nullptr ? e->histogram.count : 0;
  }
  double span_s(const char* phase) const {
    return hist_sum(("socl.span." + std::string(phase) + "_us").c_str()) *
           1e-6;
  }
};

/// core.*, serverless.* and shard.* per-layer metrics, harvested from the
/// Recorder (zero where the workload does not exercise the layer).
void add_layer_metrics(Result& result, const Harvest& h) {
  // core: Algorithms 1, 2, 3/4, 5 and the routing engine (span sums).
  result.add("core.partition_s", h.span_s("partition"), "s");
  result.add("core.preprovision_s", h.span_s("preprovision"), "s");
  result.add("core.combination_s", h.span_s("combination"), "s");
  result.add("core.storage_s", h.span_s("fuzzy_ahp"), "s");
  result.add("core.routing_s", h.span_s("routing"), "s");
  const double routes =
      static_cast<double>(h.counter("socl.routing.routes_computed"));
  const double hits = static_cast<double>(h.counter("socl.routing.cache_hits"));
  result.add("core.routes_computed", routes, "count");
  result.add("core.routing_cache_hits", hits, "count");
  result.add("core.routing_cache_hit_ratio", ratio(hits, hits + routes),
             "fraction");
  const double memo_hits =
      static_cast<double>(h.counter("socl.kernel.memo_hits"));
  const double memo_miss =
      static_cast<double>(h.counter("socl.kernel.memo_misses"));
  result.add("core.kernel_costs",
             static_cast<double>(h.counter("socl.kernel.costs")), "count");
  result.add("core.kernel_memo_lookups", memo_hits + memo_miss, "count");
  result.add("core.kernel_memo_hit_ratio",
             ratio(memo_hits, memo_hits + memo_miss), "fraction");
  const double serial =
      static_cast<double>(h.counter("socl.combination.serial_removals"));
  const double rollbacks =
      static_cast<double>(h.counter("socl.combination.rollbacks"));
  result.add("core.serial_moves", serial + rollbacks, "count");
  result.add("core.rollback_ratio", ratio(rollbacks, serial + rollbacks),
             "fraction");

  // serverless: the DES data plane.
  const double busy = h.span_s("serverless");
  const double inv =
      static_cast<double>(h.counter("socl.serverless.invocations"));
  const double warm =
      static_cast<double>(h.counter("socl.serverless.warm_hits"));
  result.add("serverless.busy_s", busy, "s");
  result.add("serverless.invocations", inv, "count");
  result.add("serverless.invocations_per_s", ratio(inv, busy), "1/s");
  result.add("serverless.warm_hit_ratio", ratio(warm, inv), "fraction");
  result.add("serverless.cold_serves",
             static_cast<double>(h.counter("socl.serverless.cold_serves")),
             "count");
  result.add("serverless.queue_serves",
             static_cast<double>(h.counter("socl.serverless.queue_serves")),
             "count");

  // shard: the price search and per-shard solves.
  result.add("shard.solve_s", h.hist_sum("socl.shard.solve_s"), "s");
  const std::int64_t shard_solves = h.hist_count("socl.shard.shard_solve_s");
  result.add("shard.shard_solves", static_cast<double>(shard_solves), "count");
  result.add("shard.shard_solve_mean_s",
             ratio(h.hist_sum("socl.shard.shard_solve_s"),
                   static_cast<double>(shard_solves)),
             "s");
  result.add("shard.iterations",
             static_cast<double>(h.hist_count("socl.shard.price_step")),
             "count");
  result.add("shard.shards_resolved",
             static_cast<double>(h.counter("socl.shard.shards_resolved")),
             "count");
  result.add("shard.reprices",
             static_cast<double>(h.counter("socl.serve.shard.reprices")),
             "count");
  result.add("shard.quota_fallbacks",
             static_cast<double>(h.counter("socl.shard.quota_fallbacks")),
             "count");
}

/// Fixed seed of every workload's deployment: the substrate (and, for the
/// days, the template catalog, day profile and chaos schedule). --seed
/// draws what a deployment serves, so runs of different seeds differ in
/// their inputs but not in their character.
constexpr std::uint64_t kDeploymentSeed = 2026;

// ------------------------------------------------------------------ days --

/// Workload dynamics a day's deployment serves, drawn from --seed.
struct Dynamics {
  workload::MobilityConfig mobility;
  double drift_prob = 0.0;
};

struct DaySpec {
  serve::ServingConfig config;  ///< deployment (fixed seed), no dynamics
  Dynamics dynamics;
  /// Run-time budget of one day on a slow host (not a measurement):
  /// --seconds / day_s whole days make one run.
  double day_s = 10.0;
};

/// The healthy 1-metro day: the bench_serving geometry (16 nodes, 200
/// templates) at a population where all three rungs occur.
DaySpec serving_day_spec(const Options& opt) {
  DaySpec spec;
  serve::ServingConfig& config = spec.config;
  config.scenario.num_nodes = 16;
  config.scenario.num_users = 200;  // templates
  config.population = 100'000;
  config.slots = 12;
  config.slot_horizon_s = 30.0;
  config.arrivals.mean_rate = 3e-3;
  if (opt.tiny) {
    config.scenario.num_nodes = 8;
    config.scenario.num_users = 30;
    config.population = 2000;
    config.slots = 6;
    config.slot_horizon_s = 6.0;
    config.arrivals.mean_rate = 0.05;
    spec.day_s = 0.05;
  }
  config.diurnal_amplitude = 1.0;
  config.full_replan_period = 8;
  config.online.socl.combination.threads = kThreads;
  config.runtime.threads = kThreads;
  config.seed = kDeploymentSeed;
  // The loop's own (deployment-seeded) dynamics are off; SeededDynamics
  // applies these instead.
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  spec.dynamics.mobility.move_prob = 0.3;
  spec.dynamics.drift_prob = 0.02;
  return spec;
}

/// The unreliable multi-metro day: 4 metros × 6 nodes served through the
/// shard coordinator, chaos on, cross-check lane on every slot. Users stay
/// in their metro: cross-metro commutes doubled the seed-to-seed spread of
/// the quality metrics.
DaySpec chaos_sharded_spec(const Options& opt) {
  DaySpec spec = serving_day_spec(opt);
  serve::ServingConfig& config = spec.config;
  config.metros = 4;
  config.scenario.num_nodes = 6;   // per metro
  config.scenario.num_users = 30;  // templates
  config.scenario.constants.budget = 6500.0 * config.metros;
  config.population = opt.tiny ? 500 : 2000;
  config.slots = opt.tiny ? 4 : 8;
  // Heavy enough that flash crowds on a degraded substrate queue requests
  // past their deadlines: the one workload where SLO attainment moves.
  config.arrivals.mean_rate = 0.15;
  config.sharded = true;
  config.cross_check = true;
  config.shard.threads = kThreads;
  config.shard.shard_threads = kThreads;
  config.chaos.enabled = true;
  config.chaos.node_failure_rate = 0.06;
  config.chaos.link_failure_rate = 0.03;
  config.chaos.repair_median_slots = 3.0;
  config.chaos.repair_sigma = 0.5;
  config.chaos.flash_crowd_rate = 0.2;
  config.chaos.flash_crowd_multiplier = 3.0;
  config.chaos.flash_crowd_slots = 2;
  if (opt.tiny) spec.day_s = 0.5;
  return spec;
}

/// The --seed-keyed dynamics, applied through ServingConfig::workload_hook
/// (which the loop calls on every slot after the first, before ingest):
/// mobility (the library's mobility_step) and template drift.
class SeededDynamics {
 public:
  SeededDynamics(const serve::ServingLoop& loop, const Dynamics& dynamics,
                 std::uint64_t seed)
      : loop_(&loop), dynamics_(dynamics), rng_(seed) {
    const core::Scenario& scenario = loop.scenario();
    // replicate_requests cycles the templates, so they lead the population.
    templates_.assign(scenario.requests().begin(),
                      scenario.requests().begin() +
                          loop.config().scenario.num_users);
    util::Rng weight_rng(kDeploymentSeed);
    weights_ = workload::attachment_weights(
        scenario.network().num_nodes(), loop.config().scenario.requests,
        weight_rng);
  }

  void operator()(int, std::vector<workload::UserRequest>& requests) {
    workload::mobility_step(loop_->scenario().network(), requests, weights_,
                            dynamics_.mobility, rng_);
    for (auto& request : requests) {
      // Two draws per user whatever the outcome (determinism).
      const bool drifts = rng_.bernoulli(dynamics_.drift_prob);
      const workload::UserRequest& tmpl =
          templates_[rng_.index(templates_.size())];
      if (!drifts) continue;
      request.chain = tmpl.chain;
      request.edge_data = tmpl.edge_data;
      request.data_in = tmpl.data_in;
      request.data_out = tmpl.data_out;
      request.deadline = tmpl.deadline;
    }
  }

 private:
  const serve::ServingLoop* loop_;
  Dynamics dynamics_;
  util::Rng rng_;
  std::vector<workload::UserRequest> templates_;
  std::vector<double> weights_;
};

/// A serving loop fed by SeededDynamics (the hook owns the dynamics, which
/// refer back to the loop).
std::unique_ptr<serve::ServingLoop> make_day(const DaySpec& spec,
                                             std::uint64_t seed,
                                             obs::ObsSink* sink) {
  serve::ServingConfig config = spec.config;
  config.sink = sink;
  config.online.socl.sink = sink;
  auto dynamics = std::make_shared<std::unique_ptr<SeededDynamics>>();
  config.workload_hook = [dynamics](int slot,
                                    std::vector<workload::UserRequest>& r) {
    (**dynamics)(slot, r);
  };
  auto loop = std::make_unique<serve::ServingLoop>(std::move(config));
  *dynamics = std::make_unique<SeededDynamics>(*loop, spec.dynamics, seed);
  return loop;
}

/// Outside-timed placement audit of the plan a slot leaves in force: Eqs.
/// 5, 6 and the placement side of Eq. 11 (the loop does not expose its
/// assignment; the cross-check lane audits that). Eq. 5 is the heuristic's
/// known marginal budget miss, so it is reported, not gated.
struct Audit {
  double audit_s = 0.0;
  double overspend = 0.0;  ///< Eq. 5 breach / budget (0 when within)
  std::vector<std::string> violations;  ///< every other violated constraint
};

Audit audit_plan(const serve::ServingLoop& loop) {
  Audit audit;
  const Clock::time_point t0 = Clock::now();
  const validate::Report report =
      validate::SolutionValidator(loop.scenario())
          .validate_placement(loop.placement());
  audit.audit_s = seconds_since(t0);
  for (const auto& violation : report.violations) {
    if (violation.constraint == validate::Constraint::kBudget) {
      audit.overspend = -violation.slack() / violation.rhs;
    } else {
      audit.violations.push_back(violation.describe());
    }
  }
  return audit;
}

/// One served slot: its report, its step() wall time and what was measured
/// around it.
struct Slot {
  serve::SlotReport report;
  double step_s = 0.0;
  double des_s = 0.0;  ///< DES share of the step (traced days only)
  Audit audit;
};

/// One served day, closed loop (slot k+1 starts when step() returns). A
/// slot that throws is counted, not fatal; it is left out of `slots`.
struct Day {
  std::vector<Slot> slots;
  int attempted = 0;
  int failed = 0;

  double step_total_s() const {
    double total = 0.0;
    for (const Slot& slot : slots) total += slot.step_s;
    return total;
  }
};

double serverless_span_s(const obs::Recorder& recorder) {
  const auto* e =
      recorder.metrics().snapshot().find("socl.span.serverless_us");
  return e != nullptr ? e->histogram.sum * 1e-6 : 0.0;
}

Day serve_day(serve::ServingLoop& loop, const obs::Recorder* recorder) {
  Day day;
  for (int s = 0; s < loop.config().slots; ++s) {
    ++day.attempted;
    const double des_before =
        recorder != nullptr ? serverless_span_s(*recorder) : 0.0;
    const Clock::time_point t0 = Clock::now();
    try {
      Slot slot;
      slot.report = loop.step();
      slot.step_s = seconds_since(t0);
      if (recorder != nullptr) {
        slot.des_s = serverless_span_s(*recorder) - des_before;
      }
      slot.audit = audit_plan(loop);
      day.slots.push_back(std::move(slot));
    } catch (const std::exception& e) {
      ++day.failed;
      std::cerr << "perfbench: slot " << s + 1 << " threw: " << e.what()
                << '\n';
    }
  }
  return day;
}

/// Outside-timed Scenario::set_requests of the loop's current population
/// into a fresh scenario on the same substrate (the aggregation cost).
double time_aggregation(const serve::ServingLoop& loop) {
  const core::Scenario& scenario = loop.scenario();
  core::Scenario probe(scenario.network(), scenario.catalog(),
                       {scenario.request(0)}, scenario.constants());
  std::vector<workload::UserRequest> population = scenario.requests();
  const Clock::time_point t0 = Clock::now();
  probe.set_requests(std::move(population));
  return seconds_since(t0);
}

/// Every deterministic field of a slot (everything but wall time).
bool same_slot(const serve::SlotReport& a, const serve::SlotReport& b) {
  return a.slot == b.slot && a.mode == b.mode && a.classes == b.classes &&
         a.classes_recomputed == b.classes_recomputed &&
         a.objective == b.objective && a.mean_latency_s == b.mean_latency_s &&
         a.placement_churn == b.placement_churn &&
         a.prewarm_ahead_hits == b.prewarm_ahead_hits &&
         a.invocations == b.invocations &&
         a.requests_completed == b.requests_completed &&
         a.slo_met == b.slo_met && a.cold_serves == b.cold_serves &&
         a.demand_fingerprint == b.demand_fingerprint &&
         a.validator_violations == b.validator_violations &&
         a.failed_nodes == b.failed_nodes &&
         a.users_rehomed == b.users_rehomed &&
         a.shards_resolved == b.shards_resolved && a.repriced == b.repriced;
}

std::vector<double> rung_control(const Day& day, serve::SlotMode mode) {
  std::vector<double> out;
  for (const Slot& slot : day.slots) {
    if (slot.report.mode == mode) out.push_back(slot.report.control_s);
  }
  return out;
}

/// serve.*, chaos.* and validate.* per-layer metrics of a traced day.
void add_serve_metrics(Result& result, const Day& day, bool cross_check,
                       int population) {
  int carried = 0, incremental = 0, replans = 0, churn = 0, prewarm = 0;
  std::int64_t classes = 0, recomputed = 0;
  int substrate_changes = 0, rehomed = 0, degraded = 0;
  std::int64_t degraded_requests = 0, degraded_met = 0;
  int overspends = 0;
  double audit_s = 0.0, overspend = 0.0;
  std::vector<double> data_plane, cross_check_s;
  for (const Slot& entry : day.slots) {
    const serve::SlotReport& slot = entry.report;
    carried += slot.mode == serve::SlotMode::kCarried;
    incremental += slot.mode == serve::SlotMode::kIncremental;
    replans += slot.mode == serve::SlotMode::kReplan;
    churn += slot.placement_churn;
    prewarm += slot.prewarm_ahead_hits;
    classes += slot.classes;
    recomputed += slot.classes_recomputed;
    substrate_changes += slot.substrate_changed;
    rehomed += slot.users_rehomed;
    if (slot.failed_nodes > 0 || slot.failed_links > 0) {
      ++degraded;
      degraded_requests += slot.requests_completed;
      degraded_met += slot.slo_met;
    }
    const double rest = entry.step_s - slot.control_s;
    data_plane.push_back(rest);
    if (slot.validator_violations >= 0) {
      cross_check_s.push_back(std::max(0.0, rest - entry.des_s));
    }
    audit_s += entry.audit.audit_s;
    overspends += entry.audit.overspend > 0.0;
    overspend = std::max(overspend, entry.audit.overspend);
  }
  result.add("serve.carried_slots", carried, "count");
  result.add("serve.incremental_slots", incremental, "count");
  result.add("serve.replans", replans, "count");
  result.add("serve.carried_p50_s",
             median(rung_control(day, serve::SlotMode::kCarried)), "s");
  result.add("serve.incremental_p50_s",
             median(rung_control(day, serve::SlotMode::kIncremental)), "s");
  result.add("serve.replan_p50_s",
             median(rung_control(day, serve::SlotMode::kReplan)), "s");
  result.add("serve.classes_total", static_cast<double>(classes), "count");
  result.add("serve.recompute_fraction", ratio(recomputed, classes),
             "fraction");
  result.add("serve.churn_instances", churn, "count");
  result.add("serve.prewarm_hits", prewarm, "count");
  result.add("serve.data_plane_p50_s", median(data_plane), "s");
  result.add("serve.cross_check_p50_s", median(cross_check_s), "s");
  result.add("chaos.substrate_changes", substrate_changes, "count");
  result.add("chaos.users_rehomed", rehomed, "count");
  result.add("chaos.degraded_slots", degraded, "count");
  result.add("chaos.degraded_requests", static_cast<double>(degraded_requests),
             "count");
  result.add("chaos.degraded_slo_attainment",
             ratio(degraded_met, degraded_requests), "fraction");
  result.add("validate.audit_s", audit_s, "s");
  result.add("validate.users_checked",
             cross_check ? static_cast<double>(population) *
                               static_cast<double>(day.slots.size())
                         : 0.0,
             "count");
  result.add("validate.budget_overspends", overspends, "count");
  result.add("validate.max_overspend_frac", overspend, "fraction");
}

/// For each slot index, the median over the days of `value(slot)`: a
/// burst of host contention during one day moves no slot's figure.
template <typename F>
std::vector<double> per_slot_medians(const std::vector<Day>& days,
                                     int slots, F value) {
  std::vector<double> out;
  for (int s = 1; s <= slots; ++s) {
    std::vector<double> samples;
    for (const Day& day : days) {
      for (const Slot& slot : day.slots) {
        if (slot.report.slot == s) samples.push_back(value(slot));
      }
    }
    if (!samples.empty()) out.push_back(median(samples));
  }
  return out;
}

Result run_day_workload(const Options& opt, const DaySpec& spec) {
  const serve::ServingConfig& config = spec.config;
  const int days_wanted =
      opt.trace ? 2
                : std::max(3, static_cast<int>(opt.seconds / spec.day_s));
  info("day.nodes", std::to_string(config.scenario.num_nodes) +
                        (config.metros > 0
                             ? " per metro x " + std::to_string(config.metros)
                             : std::string()));
  info("day.templates", std::to_string(config.scenario.num_users));
  info("day.population", std::to_string(config.population));
  info("day.slots", std::to_string(config.slots));
  info("day.arrival_rate", std::to_string(config.arrivals.mean_rate));
  info("day.sharded", config.sharded ? "yes" : "no");
  info("day.chaos", config.chaos.enabled ? "yes" : "no");
  info("day.cross_check", config.cross_check ? "yes" : "no");
  info("day.repeats", std::to_string(days_wanted));

  Result result;
  obs::Recorder recorder;
  const std::uint64_t seed = mix(opt.seed, 0xd4e);
  std::vector<double> setup_s;
  constexpr int kExtraSetups = 15;
  for (int i = 0; i < kExtraSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto loop = make_day(spec, seed, nullptr);
    setup_s.push_back(seconds_since(t0));
  }

  // Whole days, repeated; in a traced run the second day is traced.
  std::vector<Day> days;
  double aggregate_s = 0.0;
  int classes = 0;
  double compression = 0.0;
  for (int d = 0; d < days_wanted; ++d) {
    const bool traced = opt.trace && d == 1;
    const Clock::time_point t0 = Clock::now();
    const auto loop = make_day(spec, seed, traced ? &recorder : nullptr);
    setup_s.push_back(seconds_since(t0));
    days.push_back(serve_day(*loop, traced ? &recorder : nullptr));
    if (traced) {
      aggregate_s = time_aggregation(*loop);
      classes = loop->scenario().classes().num_classes();
      compression = loop->scenario().classes().compression_ratio();
    }
  }

  const Day& first = days.front();
  for (const Day& day : days) {
    result.attempted += day.attempted;
    result.failed += day.failed;
    bool same = day.slots.size() == first.slots.size();
    for (std::size_t i = 0; same && i < day.slots.size(); ++i) {
      same = same_slot(day.slots[i].report, first.slots[i].report);
    }
    result.check(same, "day differs from the first repeat");
    for (const Slot& entry : day.slots) {
      const serve::SlotReport& slot = entry.report;
      const std::string where = "slot " + std::to_string(slot.slot);
      if (config.cross_check &&
          (!slot.full_reroute_matches || slot.validator_violations != 0)) {
        ++result.failed;
        result.check(false, "cross-check failed at " + where + " (" +
                                std::to_string(slot.validator_violations) +
                                " violations)");
      }
      for (const std::string& violation : entry.audit.violations) {
        result.check(false, where + " plan violates " + violation);
      }
      if (!entry.audit.violations.empty()) ++result.failed;
    }
  }
  double objective = 0.0, latency = 0.0;
  std::int64_t requests = 0, slo_met = 0, invocations = 0, cold = 0;
  std::string rungs;
  for (const Slot& entry : first.slots) {
    const serve::SlotReport& slot = entry.report;
    objective += slot.objective;
    latency += slot.mean_latency_s;
    requests += slot.requests_completed;
    slo_met += slot.slo_met;
    invocations += slot.invocations;
    cold += slot.cold_serves;
    rungs += serve::slot_mode_name(slot.mode)[0];
  }
  info("day.requests", std::to_string(requests));
  info("day.rungs", rungs);
  if (first.slots.empty()) return result;
  const double n = static_cast<double>(first.slots.size());

  if (!opt.trace) {
    const std::vector<double> control = per_slot_medians(
        days, config.slots, [](const Slot& s) { return s.report.control_s; });
    const std::vector<double> step = per_slot_medians(
        days, config.slots, [](const Slot& s) { return s.step_s; });
    double control_s = 0.0, step_s = 0.0;
    for (double c : control) control_s += c;
    for (double s : step) step_s += s;
    std::vector<double> steps;
    std::string per_day;
    for (const Day& day : days) {
      for (const Slot& slot : day.slots) steps.push_back(slot.step_s);
      per_day += std::to_string(day.step_total_s()) + " ";
    }
    info("day.step_total_s", per_day);
    info("day.slot_samples", std::to_string(steps.size()));
    info("day.setups", std::to_string(setup_s.size()));
    result.add("setup_s", median(setup_s), "s");
    result.add("control_mean_s", ratio(control_s, control.size()), "s");
    result.add("slot_p50_s", median(steps), "s");
    result.add("user_slots_per_s",
               ratio(static_cast<double>(config.population) * step.size(),
                     step_s),
               "1/s");
    result.add("objective", objective / n, "objective");
    result.add("mean_latency_ms", latency / n * 1e3, "ms");
    result.add("slo_attainment", ratio(slo_met, requests), "fraction");
    result.add("cold_start_rate", ratio(cold, invocations), "fraction");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  const Day& traced = days.back();
  const Harvest h{recorder.metrics().snapshot()};
  result.add("workload.aggregate_s", aggregate_s, "s");
  result.add("workload.users", config.population, "count");
  result.add("workload.classes", classes, "count");
  result.add("workload.compression", compression, "ratio");
  add_layer_metrics(result, h);
  add_serve_metrics(result, traced, config.cross_check, config.population);
  result.add("obs.overhead_frac",
             ratio(traced.step_total_s(), first.step_total_s()) - 1.0,
             "fraction");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--trace") opt.trace = std::stoi(value()) != 0;
      else if (arg == "--tiny") opt.tiny = true;
      else throw std::invalid_argument("unknown argument " + arg);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << '\n';
      return 2;
    }
  }
  info("workload", opt.workload);
  info("seed", std::to_string(opt.seed));
  info("threads", std::to_string(kThreads));
  info("nproc", std::to_string(std::thread::hardware_concurrency()));
  Result result;
  if (opt.workload == "serving_day") {
    result = run_day_workload(opt, serving_day_spec(opt));
  } else if (opt.workload == "chaos_sharded") {
    result = run_day_workload(opt, chaos_sharded_spec(opt));
  } else {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  result.print();
  return result.correct && result.failed == 0 ? 0 : 1;
}
