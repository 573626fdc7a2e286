// socl_cli — run any scenario / algorithm combination from the command
// line. The tool a downstream operator reaches for first:
//
//   socl_cli --nodes 12 --users 80 --budget 7000 --lambda 0.5
//            --catalog trainticket --topology grid --algorithm socl --seed 3
//
// Prints the scenario summary, the chosen algorithm's decision, the
// evaluation, and (with --placement) the full deployment map. Exits
// non-zero on invalid arguments.
//
// Observability (DESIGN.md §4e): `--trace-out t.json` writes a
// Chrome-trace-format span log of the run (open in chrome://tracing or
// Perfetto); `--metrics-out m.csv` writes the merged metrics registry
// (CSV by default, full-fidelity JSON when the path ends in `.json`).
// docs/METRICS.md documents both schemas.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "baselines/gcog.h"
#include "baselines/jdr.h"
#include "baselines/random_provision.h"
#include "ilp/socl_ilp.h"
#include "net/topology_families.h"
#include "obs/recorder.h"
#include "serve/serving_loop.h"
#include "util/table.h"
#include "validate/validator.h"

namespace {

using namespace socl;

struct CliOptions {
  int nodes = 10;
  int users = 40;
  double budget = 6500.0;
  double lambda = 0.5;
  std::uint64_t seed = 1;
  std::string catalog = "eshop";
  std::string topology = "geometric";
  std::string algorithm = "socl";
  double opt_time_limit = 30.0;
  bool show_placement = false;
  bool validate = false;
  bool help = false;
  std::string trace_out;    // Chrome-trace JSON path ("" = off)
  std::string metrics_out;  // metrics CSV/JSON path ("" = off)
  // --serve: drive the online serving loop (src/serve/) instead of a
  // single one-shot solve. --users then counts request templates and
  // --population the aggregated user base replicated over them.
  bool serve = false;
  int slots = 24;
  int population = 0;  // 0 = num_users (templates serve as the population)
  double move_prob = 0.3;
  double drift_prob = 0.02;
  double slot_horizon_s = 30.0;
  std::string serve_csv;  // per-slot series path ("" = off)
  // Multi-metro serving: --nodes becomes nodes *per metro*; --sharded gives
  // the replan coordinator (shard::ShardedSoCL) one shard per metro.
  int metros = 0;
  bool sharded = false;
  double cross_metro_prob = 0.0;
  // --chaos: inject the failure/repair/flash-crowd schedule into the day
  // (serve::ChaosConfig defaults; deterministic in --seed).
  bool chaos = false;
};

void print_usage() {
  std::cout <<
      R"(usage: socl_cli [options]
  --nodes N          edge servers (default 10)
  --users N          user requests (default 40)
  --budget X         provisioning budget K^max (default 6500)
  --lambda X         cost/latency weight in [0,1] (default 0.5)
  --seed N           RNG seed (default 1)
  --catalog NAME     eshop | sockshop | trainticket | tiny
  --topology NAME    geometric | ring | grid | scalefree
  --algorithm NAME   socl | rp | jdr | gcog | opt
  --time-limit S     wall limit for --algorithm opt (default 30)
  --placement        print the full deployment map
  --validate         re-audit the solution with the independent constraint
                     validator (DESIGN.md §4f); non-zero exit on violations
  --trace-out F      write a Chrome-trace JSON span log (chrome://tracing)
  --metrics-out F    write the metrics registry (CSV, or JSON if F ends .json)
serving mode (DESIGN.md §4i):
  --serve            run the online serving loop over a simulated day instead
                     of a one-shot solve; --users becomes the template count
  --slots N          serving slots in the day (default 24)
  --population N     aggregated users replicated over the templates
                     (default: --users, i.e. one user per template)
  --move-prob X      per-user mobility probability per slot (default 0.3)
  --drift-prob X     per-user template-drift probability (default 0.02)
  --horizon S        DES horizon per slot in seconds (default 30)
  --serve-csv F      write the per-slot serving series as CSV
                     (--validate turns on the full-reroute cross-check lane)
  --metros N         serve on a stitched multi-metro substrate of N metros
                     (--nodes then counts edge servers *per metro*)
  --sharded          plan replan slots with one coordinator shard per
                     metro instead of one shard (requires --metros)
  --cross-metro X    per-user per-slot probability of re-homing to another
                     metro (requires --metros >= 2)
  --chaos            inject node/link failures, repairs, and flash crowds
                     into the serving day (deterministic in --seed)
  --help             this text
)";
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << '\n';
        return nullptr;
      }
      return argv[++i];
    };
    try {
      if (arg == "--help" || arg == "-h") {
        options.help = true;
      } else if (arg == "--placement") {
        options.show_placement = true;
      } else if (arg == "--validate") {
        options.validate = true;
      } else if (arg == "--nodes") {
        const char* v = next_value();
        if (!v) return false;
        options.nodes = std::stoi(v);
      } else if (arg == "--users") {
        const char* v = next_value();
        if (!v) return false;
        options.users = std::stoi(v);
      } else if (arg == "--budget") {
        const char* v = next_value();
        if (!v) return false;
        options.budget = std::stod(v);
      } else if (arg == "--lambda") {
        const char* v = next_value();
        if (!v) return false;
        options.lambda = std::stod(v);
      } else if (arg == "--seed") {
        const char* v = next_value();
        if (!v) return false;
        options.seed = std::stoull(v);
      } else if (arg == "--catalog") {
        const char* v = next_value();
        if (!v) return false;
        options.catalog = v;
      } else if (arg == "--topology") {
        const char* v = next_value();
        if (!v) return false;
        options.topology = v;
      } else if (arg == "--algorithm") {
        const char* v = next_value();
        if (!v) return false;
        options.algorithm = v;
      } else if (arg == "--time-limit") {
        const char* v = next_value();
        if (!v) return false;
        options.opt_time_limit = std::stod(v);
      } else if (arg == "--serve") {
        options.serve = true;
      } else if (arg == "--slots") {
        const char* v = next_value();
        if (!v) return false;
        options.slots = std::stoi(v);
      } else if (arg == "--population") {
        const char* v = next_value();
        if (!v) return false;
        options.population = std::stoi(v);
      } else if (arg == "--move-prob") {
        const char* v = next_value();
        if (!v) return false;
        options.move_prob = std::stod(v);
      } else if (arg == "--drift-prob") {
        const char* v = next_value();
        if (!v) return false;
        options.drift_prob = std::stod(v);
      } else if (arg == "--horizon") {
        const char* v = next_value();
        if (!v) return false;
        options.slot_horizon_s = std::stod(v);
      } else if (arg == "--metros") {
        const char* v = next_value();
        if (!v) return false;
        options.metros = std::stoi(v);
      } else if (arg == "--sharded") {
        options.sharded = true;
      } else if (arg == "--chaos") {
        options.chaos = true;
      } else if (arg == "--cross-metro") {
        const char* v = next_value();
        if (!v) return false;
        options.cross_metro_prob = std::stod(v);
      } else if (arg == "--serve-csv") {
        const char* v = next_value();
        if (!v) return false;
        options.serve_csv = v;
      } else if (arg == "--trace-out") {
        const char* v = next_value();
        if (!v) return false;
        options.trace_out = v;
      } else if (arg == "--metrics-out") {
        const char* v = next_value();
        if (!v) return false;
        options.metrics_out = v;
      } else {
        std::cerr << "unknown argument: " << arg << '\n';
        return false;
      }
    } catch (const std::exception& error) {
      std::cerr << "bad value for " << arg << ": " << error.what() << '\n';
      return false;
    }
  }
  return true;
}

net::TopologyFamily family_from(const std::string& name) {
  if (name == "geometric") return net::TopologyFamily::kGeometric;
  if (name == "ring") return net::TopologyFamily::kRing;
  if (name == "grid") return net::TopologyFamily::kGrid;
  if (name == "scalefree") return net::TopologyFamily::kScaleFree;
  throw std::invalid_argument("unknown topology: " + name);
}

// --serve: a simulated day on the online serving loop (DESIGN.md §4i)
// instead of a one-shot solve. Returns the process exit code.
int run_serving(const CliOptions& options, obs::Recorder* recorder) {
  serve::ServingConfig config;
  config.scenario.num_nodes = options.nodes;
  config.scenario.num_users = options.users;  // request templates
  config.scenario.constants.budget = options.budget;
  config.scenario.constants.lambda = options.lambda;
  if (options.catalog == "tiny") {
    config.scenario.use_tiny_catalog = true;
  } else {
    config.scenario.catalog = &workload::catalog_by_name(options.catalog);
  }
  config.population = options.population;  // 0 = templates as population
  config.slots = options.slots;
  config.slot_horizon_s = options.slot_horizon_s;
  config.mobility.move_prob = options.move_prob;
  config.drift_prob = options.drift_prob;
  config.cross_check = options.validate;
  config.seed = options.seed;
  config.sink = recorder;
  config.metros = options.metros;
  config.sharded = options.sharded;
  config.cross_metro_prob = options.cross_metro_prob;
  config.chaos.enabled = options.chaos;

  const int population =
      config.population > 0 ? config.population : options.users;
  std::cout << "serving day: " << options.nodes << " nodes";
  if (options.metros > 0) {
    std::cout << "/metro x " << options.metros << " metros"
              << (options.sharded ? " (sharded control plane)" : "");
  }
  std::cout << ", " << population << " users over " << options.users
            << " templates, catalog " << options.catalog << ", "
            << options.slots << " slots"
            << (options.validate ? " (cross-check lane on)" : "")
            << (options.chaos ? " (chaos lane on)" : "") << "\n\n";
  if (options.topology != "geometric") {
    std::cout << "note: --serve uses the scenario factory substrate; "
                 "--topology is ignored\n\n";
  }

  serve::ServingLoop loop(config);
  std::vector<std::string> columns = {"slot", "mode", "classes", "recomp",
                                      "churn", "requests", "slo",
                                      "cold_rate", "control_ms"};
  if (options.chaos) {
    columns.insert(columns.end(), {"fail_n", "fail_l", "rehomed", "flash"});
  }
  util::Table table(columns);
  for (int s = 0; s < config.slots; ++s) {
    const serve::SlotReport slot = loop.step();
    table.row()
        .integer(slot.slot)
        .cell(serve::slot_mode_name(slot.mode))
        .integer(slot.classes)
        .integer(slot.classes_recomputed)
        .integer(slot.placement_churn)
        .integer(slot.requests_completed)
        .num(slot.slo_attainment, 4)
        .num(slot.cold_start_rate, 4)
        .num(slot.control_s * 1e3, 1);
    if (options.chaos) {
      table.integer(slot.failed_nodes)
          .integer(slot.failed_links)
          .integer(slot.users_rehomed)
          .num(slot.flash_multiplier, 1);
    }
    if (options.validate && (slot.validator_violations != 0 ||
                             !slot.full_reroute_matches)) {
      table.print(std::cout);
      std::cerr << "cross-check failed at slot " << slot.slot << ": "
                << slot.validator_violations << " violations\n";
      return 3;
    }
  }
  table.print(std::cout);

  const serve::ServingReport report = loop.run();  // accumulated state
  std::cout << "\nday summary: " << report.summary() << '\n';
  if (!options.serve_csv.empty()) {
    report.write_csv(options.serve_csv);
    std::cout << "serving series: " << report.slots.size() << " slots -> "
              << options.serve_csv << '\n';
  }
  return 0;
}

// Shared trace/metrics export for both the one-shot and serving paths.
void export_observability(const CliOptions& options,
                          const obs::Recorder* recorder) {
  if (recorder == nullptr) return;
  if (!options.trace_out.empty()) {
    recorder->trace().write_chrome_json(options.trace_out);
    std::cout << "trace: " << recorder->trace().size() << " spans -> "
              << options.trace_out << " (open in chrome://tracing)\n";
  }
  if (!options.metrics_out.empty()) {
    const auto snapshot = recorder->metrics().snapshot();
    if (options.metrics_out.size() >= 5 &&
        options.metrics_out.substr(options.metrics_out.size() - 5) ==
            ".json") {
      snapshot.write_json(options.metrics_out);
    } else {
      snapshot.write_csv(options.metrics_out);
    }
    std::cout << "metrics: " << snapshot.entries.size() << " series -> "
              << options.metrics_out << '\n';
  }
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) {
    print_usage();
    return 2;
  }
  if (options.help) {
    print_usage();
    return 0;
  }

  try {
    if (options.serve) {
      // Serving mode: an observed day on the online control plane. The
      // recorder (when requested) collects socl.serve.* counters/gauges
      // alongside the span trace.
      std::unique_ptr<obs::Recorder> recorder;
      if (!options.trace_out.empty() || !options.metrics_out.empty()) {
        recorder = std::make_unique<obs::Recorder>();
      }
      int code = 0;
      {
        obs::ScopedSpan serve_span(recorder.get(), obs::Phase::kOther,
                                   "cli.serve");
        code = run_serving(options, recorder.get());
      }
      export_observability(options, recorder.get());
      return code;
    }

    // Build the scenario from the requested substrate pieces.
    const auto& catalog = workload::catalog_by_name(options.catalog);
    net::TopologyConfig topo;
    topo.num_nodes = options.nodes;
    core::ScenarioConfig scenario_config;
    scenario_config.num_users = options.users;
    scenario_config.catalog = &catalog;
    scenario_config.constants.budget = options.budget;
    scenario_config.constants.lambda = options.lambda;
    const core::Scenario scenario = core::make_scenario(
        net::make_family_topology(family_from(options.topology), topo,
                                  options.seed),
        scenario_config, options.seed);

    std::cout << "scenario: " << scenario.num_nodes() << " nodes ("
              << options.topology << "), " << scenario.num_users()
              << " users, catalog " << catalog.name() << ", budget "
              << options.budget << ", lambda " << options.lambda << "\n\n";

    // Attach a recorder only when an observability output was requested;
    // without one the pipeline runs with null sinks (no instrumentation).
    std::unique_ptr<obs::Recorder> recorder;
    if (!options.trace_out.empty() || !options.metrics_out.empty()) {
      recorder = std::make_unique<obs::Recorder>();
    }
    std::optional<obs::ScopedSpan> cli_span;
    cli_span.emplace(recorder.get(), obs::Phase::kOther, "cli.solve");

    core::Solution solution{core::Placement(scenario), std::nullopt, {}, 0.0,
                            {}};
    if (options.algorithm == "socl") {
      core::SoCLParams params;
      params.sink = recorder.get();
      if (options.validate) {
        // Debug hook: every solve is re-audited and the socl.validate.*
        // counters land in the recorder (when one is attached).
        validate::install_validation(params);
      }
      solution = baselines::SoCLAlgorithm(params).solve(scenario);
    } else if (options.algorithm == "rp") {
      solution = baselines::RandomProvision(options.seed).solve(scenario);
    } else if (options.algorithm == "jdr") {
      solution = baselines::Jdr().solve(scenario);
    } else if (options.algorithm == "gcog") {
      solution = baselines::GreedyCombine().solve(scenario);
    } else if (options.algorithm == "opt") {
      solver::MipOptions mip;
      mip.time_limit_s = options.opt_time_limit;
      const auto opt = ilp::solve_opt(scenario, mip);
      solution = opt.solution;
      std::cout << "optimizer: " << solver::to_string(opt.mip.status)
                << ", bound gap " << opt.mip.gap() << ", "
                << opt.mip.nodes_explored << " B&B nodes\n";
    } else {
      std::cerr << "unknown algorithm: " << options.algorithm << '\n';
      return 2;
    }

    cli_span.reset();  // close the top-level span before exporting
    export_observability(options, recorder.get());

    std::cout << options.algorithm << ": " << solution.evaluation.summary()
              << "\nsolved in " << solution.runtime_seconds * 1e3
              << " ms, " << solution.placement.total_instances()
              << " instances\n";

    bool violations_found = false;
    if (options.validate) {
      // Independent re-audit (works for every algorithm, not just socl).
      const validate::SolutionValidator validator(scenario);
      const validate::Report report =
          solution.assignment.has_value()
              ? validator.validate(solution.placement, *solution.assignment)
              : validator.validate_placement(solution.placement);
      std::cout << "\nvalidator: " << report.summary() << '\n';
      violations_found = !report.ok();
    }

    if (options.show_placement) {
      util::Table table({"microservice", "instances", "nodes"});
      for (core::MsId m = 0; m < scenario.num_microservices(); ++m) {
        const auto nodes = solution.placement.nodes_of(m);
        if (nodes.empty()) continue;
        std::string where;
        for (const auto k : nodes) where += 'v' + std::to_string(k) + ' ';
        table.row()
            .cell(catalog.microservice(m).name)
            .integer(solution.placement.instance_count(m))
            .cell(where);
      }
      std::cout << '\n';
      table.print(std::cout);
    }
    return violations_found ? 3 : 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
