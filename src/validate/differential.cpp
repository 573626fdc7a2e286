#include "validate/differential.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/evaluator.h"
#include "core/routing_engine.h"
#include "ilp/exact_solver.h"
#include "ilp/socl_ilp.h"
#include "net/topology.h"
#include "solver/mip.h"
#include "util/log.h"
#include "util/rng.h"
#include "workload/request_classes.h"

namespace socl::validate {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// a <= b up to a relative tolerance.
bool approx_le(double a, double b, double tol) {
  return a <= b + tol * std::max({1.0, std::abs(a), std::abs(b)});
}

bool approx_eq(double a, double b, double tol) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

int structural_violations(const Report& report) {
  return report.count(Constraint::kAssignment) +
         report.count(Constraint::kDeployment) +
         report.count(Constraint::kBinarity);
}

}  // namespace

FuzzCase make_fuzz_case(std::uint64_t seed) {
  util::Rng rng(seed ^ 0xd1ffe7e57ba5e5edULL);
  FuzzCase out;

  // Sizes capped so the exact enumeration (2^nodes - 1)^|requested| stays
  // tractable (index by node count).
  static constexpr int kMaxMsByNodes[] = {0, 0, 4, 4, 4, 3, 2};
  const int nodes = static_cast<int>(rng.uniform_int(2, 6));
  const int ms_count = static_cast<int>(
      rng.uniform_int(2, kMaxMsByNodes[nodes]));

  // Catalog with varied cost / storage / compute footprints.
  std::vector<workload::Microservice> services;
  std::vector<workload::MsId> all_ms;
  for (int i = 0; i < ms_count; ++i) {
    workload::Microservice ms;
    ms.name = "m" + std::to_string(i);
    ms.deploy_cost = rng.uniform(100.0, 400.0);
    ms.storage = rng.uniform(0.5, 2.5);
    ms.compute_gflop = rng.uniform(0.5, 3.0);
    services.push_back(ms);
    all_ms.push_back(i);
  }
  out.catalog = std::make_unique<workload::AppCatalog>(
      "fuzz", std::move(services),
      std::vector<workload::ChainTemplate>{{"all", all_ms, 1.0}});

  // Substrate: mostly the paper's geometric generator with a storage
  // tightness knob; sometimes a hand-built line substrate, possibly split
  // into two disconnected components.
  const double storage_scale = rng.uniform(0.6, 1.6);
  const int topo_pick = static_cast<int>(rng.uniform_int(0, 9));
  bool disconnected = false;
  net::EdgeNetwork network;
  if (topo_pick < 7) {
    net::TopologyConfig topo;
    topo.num_nodes = nodes;
    topo.k_nearest = static_cast<int>(rng.uniform_int(1, 3));
    topo.storage_min_units = 2.0 * storage_scale;
    topo.storage_max_units = 5.0 * storage_scale;
    network = net::make_topology(topo, rng());
  } else {
    disconnected = topo_pick == 9;
    for (int k = 0; k < nodes; ++k) {
      net::EdgeNode node;
      node.compute_gflops = rng.uniform(5.0, 20.0);
      node.storage_units = rng.uniform(2.0, 5.0) * storage_scale;
      network.add_node(node);
    }
    // Line within each component; a connected build is one component.
    const int split =
        disconnected ? static_cast<int>(rng.uniform_int(1, nodes - 1))
                     : nodes;
    for (int k = 0; k + 1 < nodes; ++k) {
      if (k + 1 == split) continue;  // the (only) missing bridge
      network.add_link_with_rate(k, k + 1, rng.uniform(10.0, 60.0));
    }
  }

  // Requests drawn directly (not via the request generator) so chains can
  // repeat microservices and deadlines span loose-to-binding regimes.
  const int users = static_cast<int>(rng.uniform_int(2, 6));
  std::vector<workload::UserRequest> requests;
  for (int h = 0; h < users; ++h) {
    workload::UserRequest request;
    request.id = h;
    request.attach_node =
        static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
    const int len =
        static_cast<int>(rng.uniform_int(1, std::min(4, ms_count + 1)));
    for (int pos = 0; pos < len; ++pos) {
      request.chain.push_back(
          static_cast<workload::MsId>(rng.uniform_int(0, ms_count - 1)));
    }
    if (len >= 2 && rng.uniform() < 0.3) {
      request.chain.back() = request.chain.front();  // forced repeat
    }
    for (int e = 0; e + 1 < len; ++e) {
      request.edge_data.push_back(rng.uniform(1.0, 40.0));
    }
    request.data_in = rng.uniform(1.0, 20.0);
    request.data_out = rng.uniform(1.0, 20.0);
    const double regime = rng.uniform();
    request.deadline = regime < 0.25   ? rng.uniform(0.5, 3.0)
                       : regime < 0.6 ? rng.uniform(3.0, 15.0)
                                      : 1e9;
    requests.push_back(std::move(request));
  }

  core::ProblemConstants constants;
  const double lambda_pick = rng.uniform();
  constants.lambda = lambda_pick < 0.33 ? 0.2 : lambda_pick < 0.66 ? 0.5
                                                                   : 0.8;
  constants.budget =
      out.catalog->total_single_instance_cost() * rng.uniform(0.7, 2.5);

  std::ostringstream desc;
  desc << nodes << " nodes "
       << (topo_pick < 7 ? "geometric" : disconnected ? "disconnected-line"
                                                      : "line")
       << ", " << ms_count << " ms, " << users << " users, lambda="
       << constants.lambda << ", budget=" << constants.budget
       << ", storage_scale=" << storage_scale;
  out.description = desc.str();

  out.scenario = std::make_unique<core::Scenario>(
      std::move(network), *out.catalog, std::move(requests), constants);
  return out;
}

CaseResult run_differential_case(std::uint64_t seed,
                                 const FuzzOptions& options) {
  const FuzzCase fuzz_case = make_fuzz_case(seed);
  const core::Scenario& scenario = *fuzz_case.scenario;
  const double tol = options.tolerance;

  CaseResult result;
  result.seed = seed;
  result.description = fuzz_case.description;
  auto fail = [&result](const std::string& message) {
    result.agreed = false;
    if (!result.diagnosis.empty()) result.diagnosis += "\n";
    result.diagnosis += message;
  };

  const SolutionValidator validator(scenario);
  const core::Evaluator evaluator(scenario);

  // --- Leg 1: the heuristic's own solution must validate, and the
  // validator's independent recomputation must agree with Evaluation.
  const core::Solution socl = core::SoCL().solve(scenario);
  const core::Evaluation& eval = socl.evaluation;
  result.heuristic_objective = eval.objective;
  if (socl.assignment.has_value()) {
    const Report report =
        validator.validate(socl.placement, *socl.assignment);
    if (eval.routable) {
      if (structural_violations(report) > 0) {
        fail("heuristic solution has structural violations: " +
             report.summary());
      }
      if (report.count(Constraint::kDeadline) != eval.deadline_violations) {
        fail("deadline-violation count disagrees: validator " +
             std::to_string(report.count(Constraint::kDeadline)) +
             " vs evaluator " + std::to_string(eval.deadline_violations));
      }
      if ((report.count(Constraint::kBudget) > 0) == eval.within_budget) {
        fail("budget verdict disagrees with Evaluation.within_budget");
      }
      if ((report.count(Constraint::kStorage) > 0) == eval.storage_ok) {
        fail("storage verdict disagrees with Evaluation.storage_ok");
      }
      if (!approx_eq(report.total_latency, eval.total_latency, tol)) {
        fail("recomputed total latency " +
             std::to_string(report.total_latency) + " != evaluator " +
             std::to_string(eval.total_latency));
      }
      if (!approx_eq(report.objective, eval.objective, tol)) {
        fail("recomputed objective " + std::to_string(report.objective) +
             " != evaluator " + std::to_string(eval.objective));
      }
    } else if (structural_violations(report) == 0 &&
               std::isfinite(report.total_latency)) {
      fail("evaluator says unroutable but the validator finds a clean, "
           "finite solution");
    }
  } else {
    if (eval.routable) {
      fail("router returned no assignment but Evaluation claims routable");
    }
    const Report report = validator.validate_placement(socl.placement);
    if (report.count(Constraint::kBinarity) > 0) {
      fail("heuristic placement bookkeeping broken: " + report.summary());
    }
  }

  // --- Aggregation lane (DESIGN.md §4g): replicate the workload so every
  // request class has several members and solve it; the solve scores and
  // routes one representative per class. Then route every member on its
  // OWN request through a fresh per-user ChainRouter under the solved
  // placement: each node sequence must equal the solve's assignment
  // exactly, so a class key that merged two requests routing differently
  // fails here. The validator audits the expanded assignment user by user.
  {
    util::Rng lane_rng(seed ^ 0xa66c1a55e5ULL);
    const int replication = static_cast<int>(lane_rng.uniform_int(2, 4));
    auto replicated = workload::replicate_requests(
        scenario.requests(), scenario.num_users() * replication);
    const core::Scenario agg_scenario(scenario.network(), scenario.catalog(),
                                      std::move(replicated),
                                      scenario.constants());
    if (agg_scenario.classes().num_classes() > scenario.num_users()) {
      fail("replicated workload produced more classes than template users");
    }
    const core::Solution by_class = core::SoCL().solve(agg_scenario);
    const auto by_user =
        core::ChainRouter(agg_scenario).route_all(by_class.placement);
    if (by_class.assignment.has_value() != by_user.has_value()) {
      fail("aggregated solve and per-member router disagree on routability");
    }
    if (by_class.assignment.has_value() && by_user.has_value()) {
      for (int h = 0; h < agg_scenario.num_users(); ++h) {
        if (!std::ranges::equal(by_class.assignment->user_route(h),
                                by_user->user_route(h))) {
          fail("user " + std::to_string(h) +
               " routed differently from its own per-user ChainRouter route");
          break;
        }
      }
      const core::Evaluation& ec = by_class.evaluation;
      const Report rc = SolutionValidator(agg_scenario)
                            .validate(by_class.placement, *by_class.assignment);
      if (structural_violations(rc) > 0 ||
          rc.count(Constraint::kDeadline) != ec.deadline_violations ||
          !approx_eq(rc.total_latency, ec.total_latency, tol)) {
        fail("validator audit of the aggregated solve disagrees with its "
             "evaluation: " + rc.summary());
      }
    }
  }

  // --- Leg 2: exact branch-and-bound with deadline/storage relaxed — a
  // lower bound over every budget-feasible placement.
  ilp::ExactOptions relaxed;
  relaxed.enforce_deadlines = false;
  relaxed.enforce_storage = false;
  relaxed.time_limit_s = options.exact_time_limit_s;
  const auto exact = ilp::solve_exact(scenario, relaxed);
  result.exact_objective = exact.objective;
  if (exact.timed_out) {
    result.exact_skipped = true;
    return result;
  }
  if (exact.found) {
    if (exact.status != ilp::ExactStatus::kOptimal) {
      fail("exact completed with a solution but status is not kOptimal");
    }
    const auto routed = evaluator.router().route_all(exact.placement);
    if (!routed.has_value()) {
      fail("exact optimum cannot be routed by the router");
    } else {
      const Report report = validator.validate(exact.placement, *routed);
      if (structural_violations(report) > 0 ||
          report.count(Constraint::kBudget) > 0) {
        fail("exact optimum violates constraints: " + report.summary());
      }
      if (!approx_eq(report.objective, exact.objective, tol)) {
        fail("validator recomputes the exact optimum as " +
             std::to_string(report.objective) + ", solver reported " +
             std::to_string(exact.objective));
      }
    }
    if (eval.routable && eval.within_budget &&
        std::isfinite(eval.objective) &&
        !approx_le(exact.objective, eval.objective, tol)) {
      fail("heuristic objective " + std::to_string(eval.objective) +
           " beats the exact lower bound " +
           std::to_string(exact.objective));
    }
  } else {
    if (exact.status != ilp::ExactStatus::kInfeasible) {
      fail("exact found nothing without timing out but is not kInfeasible");
    }
    if (!std::isinf(exact.objective)) {
      fail("infeasible exact objective sentinel is not +inf");
    }
    if (eval.routable && eval.within_budget) {
      fail("exact proved infeasibility but the heuristic returned a "
           "budget-feasible routable solution");
    }
  }

  // --- Leg 3: the MIP model. Skipped on disconnected substrates, whose
  // linearised delay coefficients are not finite.
  if (!options.run_mip || !exact.found || !scenario.network().connected()) {
    return result;
  }
  result.mip_checked = true;

  ilp::IlpBuildOptions build_options;
  build_options.deadline_rows = false;  // match the relaxed exact space
  const ilp::SoclIlp built = ilp::build_socl_ilp(scenario, build_options);
  solver::MipOptions mip_options;
  mip_options.time_limit_s = options.mip_time_limit_s;
  const auto mip = solver::solve_mip(built.model, mip_options);

  ilp::ExactOptions strict = relaxed;
  strict.enforce_storage = true;  // the space the MIP's storage rows encode
  const auto exact_storage = ilp::solve_exact(scenario, strict);

  if (mip.has_solution()) {
    const auto decoded = ilp::decode_placement(scenario, built, mip.x);
    const Report report = validator.validate_placement(decoded);
    if (report.count(Constraint::kBudget) > 0) {
      fail("MIP solution violates the budget row it encodes");
    }
    if (report.count(Constraint::kStorage) > 0) {
      fail("MIP solution violates a storage row it encodes");
    }
    const auto decoded_eval = evaluator.evaluate(decoded);
    if (!decoded_eval.routable) {
      // The covering rows force an instance of every requested
      // microservice, so on a connected substrate this is an encoding bug.
      fail("MIP produced a placement the router cannot route");
    } else {
      if (!approx_le(exact.objective, decoded_eval.objective, tol)) {
        fail("MIP-decoded placement beats the relaxed exact optimum");
      }
      if (exact_storage.found && !exact_storage.timed_out &&
          !approx_le(exact_storage.objective, decoded_eval.objective, tol)) {
        fail("MIP-decoded placement beats the exact optimum over the same "
             "storage-feasible space");
      }
    }
  }
  if (exact_storage.found && !exact_storage.timed_out) {
    // "exact ≡ MIP within tolerance" on the shared linearised model: the
    // exact optimum must encode to a model-feasible point whose model
    // objective respects the MIP dual bound.
    const auto warm =
        ilp::encode_warm_start(scenario, built, exact_storage.placement);
    if (!built.model.feasible(warm)) {
      fail("exact optimum is infeasible in the MIP model "
           "(row encoding disagreement)");
    } else if (mip.has_solution() &&
               !approx_le(mip.bound, built.model.objective_value(warm),
                          tol)) {
      fail("MIP dual bound exceeds the exact optimum's model objective");
    }
  }
  return result;
}

FuzzSummary run_differential_fuzz(const FuzzOptions& options) {
  FuzzSummary summary;
  for (int i = 0; i < options.cases; ++i) {
    const std::uint64_t seed = options.base_seed + static_cast<std::uint64_t>(i);
    CaseResult result = run_differential_case(seed, options);
    ++summary.cases_run;
    if (result.exact_skipped) ++summary.exact_skipped;
    if (result.mip_checked) ++summary.mip_checked;
    if (!result.exact_skipped && std::isinf(result.exact_objective)) {
      ++summary.exact_infeasible;
    }
    if (std::isinf(result.heuristic_objective)) {
      ++summary.heuristic_unroutable;
    }
    if (options.verbose) {
      util::log_info("fuzz seed ", seed, ": ",
                     result.agreed ? "agreed" : "DISAGREED", " (",
                     result.description, ")");
    }
    if (!result.agreed) {
      ++summary.disagreements;
      summary.failures.push_back(std::move(result));
    }
  }
  return summary;
}

CaseResult run_kernel_differential_case(std::uint64_t seed,
                                        const FuzzOptions& options) {
  FuzzCase fuzz_case = make_fuzz_case(seed);
  core::Scenario& scenario = *fuzz_case.scenario;
  if (options.verbose) {
    util::log_info("kernel fuzz seed ", seed, ": ", fuzz_case.description);
  }

  CaseResult result;
  result.seed = seed;
  result.description = fuzz_case.description;
  auto fail = [&result](const std::string& message) {
    result.agreed = false;
    if (!result.diagnosis.empty()) result.diagnosis += "\n";
    result.diagnosis += message;
  };

  // --- Solver leg: one full SoCL solve per scoring path. The kernel is a
  // drop-in replacement for the legacy DP, so everything downstream of the
  // scores — placement, evaluation, assignment, and the scoring-path-
  // independent counters — must be IDENTICAL, bit-for-bit.
  core::SoCLParams legacy_params;
  legacy_params.combination.use_score_kernel = false;
  const core::Solution by_kernel = core::SoCL().solve(scenario);
  const core::Solution by_legacy = core::SoCL(legacy_params).solve(scenario);
  result.heuristic_objective = by_kernel.evaluation.objective;
  if (!(by_kernel.placement == by_legacy.placement)) {
    fail("kernel and legacy solves diverged in placement");
  }
  const core::Evaluation& ek = by_kernel.evaluation;
  const core::Evaluation& el = by_legacy.evaluation;
  if (ek.objective != el.objective || ek.total_latency != el.total_latency ||
      ek.deployment_cost != el.deployment_cost ||
      ek.max_latency != el.max_latency ||
      ek.deadline_violations != el.deadline_violations ||
      ek.routable != el.routable) {
    fail("kernel objective " + std::to_string(ek.objective) +
         " not bit-identical to legacy " + std::to_string(el.objective));
  }
  if (by_kernel.assignment.has_value() != by_legacy.assignment.has_value()) {
    fail("kernel and legacy solves diverged in routability");
  }
  if (by_kernel.assignment.has_value() && by_legacy.assignment.has_value()) {
    for (int h = 0; h < scenario.num_users(); ++h) {
      if (!std::ranges::equal(by_kernel.assignment->user_route(h),
                              by_legacy.assignment->user_route(h))) {
        fail("assignment for user " + std::to_string(h) +
             " differs between kernel and legacy solves");
        break;
      }
    }
  }
  // The counters below count scoring EVENTS, not scoring mechanics, so they
  // are a pure function of the solver's decision sequence — any drift means
  // the two paths disagreed somewhere even if the final objective matched.
  const core::RoutingCounters& ck = by_kernel.combination_stats.routing;
  const core::RoutingCounters& cl = by_legacy.combination_stats.routing;
  if (ck.routes_computed != cl.routes_computed ||
      ck.cache_hits != cl.cache_hits ||
      ck.reroutes_avoided != cl.reroutes_avoided ||
      ck.candidates_scored != cl.candidates_scored ||
      ck.cache_refreshes != cl.cache_refreshes) {
    fail("routing counters diverged: kernel routed " +
         std::to_string(ck.routes_computed) + ", legacy " +
         std::to_string(cl.routes_computed));
  }

  // --- Engine leg: compare the scoring surface directly on a dense
  // placement (every node hosts every service — the widest layers, and
  // routable whenever anything is), then mutate the workload by truncating
  // every multi-hop chain and compare again. The mutation shrinks layer
  // counts and lane widths underneath warmed arenas/scratches, so a stale
  // SoA tail or dp buffer on either path shows up as a bitwise mismatch.
  core::Placement dense(scenario);
  for (workload::MsId m = 0; m < scenario.num_microservices(); ++m) {
    for (net::NodeId k = 0; k < scenario.num_nodes(); ++k) dense.deploy(m, k);
  }
  core::RoutingEngine kernel_engine(scenario, 1, true);
  core::RoutingEngine legacy_engine(scenario, 1, false);
  const auto compare_engines = [&](const char* when) {
    kernel_engine.refresh(dense);
    legacy_engine.refresh(dense);
    if (kernel_engine.cached_latency_sum() !=
        legacy_engine.cached_latency_sum()) {
      fail(std::string(when) + ": cached latency sum diverged: kernel " +
           std::to_string(kernel_engine.cached_latency_sum()) + " vs legacy " +
           std::to_string(legacy_engine.cached_latency_sum()));
    }
    const double fk = kernel_engine.full_objective(dense);
    const double fl = legacy_engine.full_objective(dense);
    if (fk != fl) {
      fail(std::string(when) + ": full objective diverged: kernel " +
           std::to_string(fk) + " vs legacy " + std::to_string(fl));
    }
    for (workload::MsId m = 0; m < scenario.num_microservices(); ++m) {
      const double ok = kernel_engine.objective_with_change(dense, m);
      const double ol = legacy_engine.objective_with_change(dense, m);
      if (ok != ol) {
        fail(std::string(when) + ": rescore of service " + std::to_string(m) +
             " diverged: kernel " + std::to_string(ok) + " vs legacy " +
             std::to_string(ol));
        break;
      }
    }
    if (kernel_engine.any_deadline_violation(dense) !=
        legacy_engine.any_deadline_violation(dense)) {
      fail(std::string(when) + ": deadline verdict diverged");
    }
  };
  compare_engines("dense");

  std::vector<workload::UserRequest> shrunk = scenario.requests();
  bool mutated = false;
  for (auto& request : shrunk) {
    if (request.chain.size() > 1) {
      request.chain.pop_back();
      request.edge_data.pop_back();
      mutated = true;
    }
  }
  if (mutated) {
    scenario.set_requests(std::move(shrunk));
    compare_engines("after chain shrink");
  }
  return result;
}

FuzzSummary run_kernel_differential_fuzz(const FuzzOptions& options) {
  FuzzSummary summary;
  for (int i = 0; i < options.cases; ++i) {
    const std::uint64_t seed =
        options.base_seed + static_cast<std::uint64_t>(i);
    CaseResult result = run_kernel_differential_case(seed, options);
    ++summary.cases_run;
    if (std::isinf(result.heuristic_objective)) {
      ++summary.heuristic_unroutable;
    }
    if (options.verbose) {
      util::log_info("kernel fuzz seed ", seed, ": ",
                     result.agreed ? "agreed" : "DISAGREED", " (",
                     result.description, ")");
    }
    if (!result.agreed) {
      ++summary.disagreements;
      summary.failures.push_back(std::move(result));
    }
  }
  return summary;
}

std::string FuzzSummary::summary() const {
  std::ostringstream out;
  out << cases_run << " cases, " << disagreements << " disagreement(s), "
      << exact_skipped << " exact-timeout skip(s), " << mip_checked
      << " MIP-checked, " << exact_infeasible << " proven-infeasible, "
      << heuristic_unroutable << " heuristic-unroutable";
  for (const auto& failure : failures) {
    out << "\nseed " << failure.seed << " (" << failure.description
        << "): reproduce with `fuzz_differential --seed " << failure.seed
        << " --verbose`\n  " << failure.diagnosis;
  }
  return out.str();
}

}  // namespace socl::validate
