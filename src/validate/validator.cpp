#include "validate/validator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/sink.h"
#include "util/log.h"

namespace socl::validate {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Feasibility tolerance; matches the 1e-9 the Evaluator applies to the
/// budget/deadline checks so validator and evaluator verdicts can be
/// compared bit-for-bit by the differential harness.
constexpr double kTol = 1e-9;

/// True when two requests feed Eq. (2) identical inputs, compared field by
/// field here rather than through the request-class key: a member may reuse
/// its representative's completion time only if the walk would be the same.
bool same_completion_inputs(const workload::UserRequest& a,
                            const workload::UserRequest& b) {
  return a.attach_node == b.attach_node && a.chain == b.chain &&
         a.edge_data == b.edge_data && a.data_in == b.data_in &&
         a.data_out == b.data_out;
}

}  // namespace

const char* constraint_name(Constraint constraint) {
  switch (constraint) {
    case Constraint::kDeadline: return "eq4.deadline";
    case Constraint::kBudget: return "eq5.budget";
    case Constraint::kStorage: return "eq6.storage";
    case Constraint::kAssignment: return "eq9.assignment";
    case Constraint::kDeployment: return "eq10.deployment";
    case Constraint::kBinarity: return "eq11.binarity";
  }
  return "unknown";
}

std::string Violation::describe() const {
  std::ostringstream out;
  out << constraint_name(constraint);
  if (user >= 0) out << " user=" << user;
  if (position >= 0) out << " pos=" << position;
  if (node != net::kInvalidNode) out << " node=v" << node;
  if (microservice != workload::kInvalidMs) out << " ms=m" << microservice;
  out << " lhs=" << lhs << " rhs=" << rhs << " slack=" << slack();
  return out.str();
}

int Report::count(Constraint constraint) const {
  int n = 0;
  for (const auto& violation : violations) {
    if (violation.constraint == constraint) ++n;
  }
  return n;
}

std::string Report::summary() const {
  if (ok()) return "OK: 0 violations";
  std::ostringstream out;
  out << violations.size() << " violation(s):";
  for (const auto& violation : violations) {
    out << "\n  " << violation.describe();
  }
  return out.str();
}

SolutionValidator::SolutionValidator(const core::Scenario& scenario)
    : scenario_(&scenario),
      paths_(scenario.network()),
      vlinks_(scenario.network(), paths_) {}

double SolutionValidator::completion_time(
    const workload::UserRequest& request,
    std::span<const net::NodeId> route) const {
  if (route.size() != request.chain.size() || route.empty()) return kInf;
  const auto& network = scenario_->network();
  const auto& catalog = scenario_->catalog();
  // d_in: upload payload from the attach node to the first serving node.
  double total =
      vlinks_.transfer_time(request.data_in, request.attach_node,
                            route.front());
  for (std::size_t pos = 0; pos < route.size(); ++pos) {
    // Per-hop transmission-computation cycle q(m_i)/c(v_k).
    total += catalog.microservice(request.chain[pos]).compute_gflop /
             network.node(route[pos]).compute_gflops;
    if (pos > 0) {
      total += vlinks_.transfer_time(request.edge_data[pos - 1],
                                     route[pos - 1], route[pos]);
    }
  }
  // d_out: return payload back to the node serving the first microservice.
  total += vlinks_.transfer_time(request.data_out, route.back(),
                                 route.front());
  return total;
}

void SolutionValidator::check_placement(const core::Placement& placement,
                                        Report& report) const {
  const auto& catalog = scenario_->catalog();
  const auto& network = scenario_->network();
  const auto& constants = scenario_->constants();

  // Eq. (11), x side: the matrix stores 0/1 by construction, so the
  // meaningful binarity check is that the instance-count bookkeeping agrees
  // with the cells (a desync would silently corrupt cost and routing).
  double cost = 0.0;
  for (workload::MsId m = 0; m < placement.num_microservices(); ++m) {
    int cells = 0;
    for (net::NodeId k = 0; k < placement.num_nodes(); ++k) {
      if (placement.deployed(m, k)) ++cells;
    }
    if (cells != placement.instance_count(m)) {
      report.violations.push_back({Constraint::kBinarity, -1,
                                   net::kInvalidNode, m, -1,
                                   static_cast<double>(cells),
                                   static_cast<double>(
                                       placement.instance_count(m))});
    }
    cost += catalog.microservice(m).deploy_cost * static_cast<double>(cells);
  }
  report.deployment_cost = cost;

  // Eq. (5): global provisioning budget.
  if (cost > constants.budget + kTol) {
    report.violations.push_back({Constraint::kBudget, -1, net::kInvalidNode,
                                 workload::kInvalidMs, -1, cost,
                                 constants.budget});
  }

  // Eq. (6): per-node storage capacity.
  for (net::NodeId k = 0; k < placement.num_nodes(); ++k) {
    double used = 0.0;
    for (workload::MsId m = 0; m < placement.num_microservices(); ++m) {
      if (placement.deployed(m, k)) used += catalog.microservice(m).storage;
    }
    const double capacity = network.node(k).storage_units;
    if (used > capacity + kTol) {
      report.violations.push_back({Constraint::kStorage, -1, k,
                                   workload::kInvalidMs, -1, used, capacity});
    }
  }
}

Report SolutionValidator::validate_placement(
    const core::Placement& placement) const {
  Report report;
  check_placement(placement, report);
  report.total_latency = kInf;
  report.objective = kInf;
  return report;
}

Report SolutionValidator::validate(const core::Placement& placement,
                                   const core::Assignment& assignment) const {
  Report report;
  check_placement(placement, report);

  const auto& requests = scenario_->requests();
  const auto& classes = scenario_->classes();
  const int nodes = scenario_->num_nodes();
  report.user_latency.assign(requests.size(), kInf);
  // Request-class memo (DESIGN.md §4g): members routed identically to their
  // representative, with Eq. (2) inputs equal to its own field by field,
  // share one Eq. (2) walk, and their latency enters the total class-major
  // (weight · D_c, one rounding per class) — matching the evaluator's
  // totalisation. Every other member gets a fresh walk and per-user
  // accumulation, so the audit never trusts the class key.
  std::vector<double> class_d(
      static_cast<std::size_t>(classes.num_classes()), kInf);
  std::vector<double> class_uniform_weight(
      static_cast<std::size_t>(classes.num_classes()), 0.0);
  std::vector<bool> class_d_known(
      static_cast<std::size_t>(classes.num_classes()), false);
  double total = 0.0;
  bool malformed = false;
  for (const auto& request : requests) {
    ++report.users_checked;
    const auto route = assignment.user_route(request.id);
    bool structurally_ok = route.size() == request.chain.size();
    if (!structurally_ok) {
      report.violations.push_back(
          {Constraint::kAssignment, request.id, net::kInvalidNode,
           workload::kInvalidMs, -1, static_cast<double>(route.size()),
           static_cast<double>(request.chain.size())});
    }
    const std::size_t len = std::min(route.size(), request.chain.size());
    for (std::size_t pos = 0; pos < len; ++pos) {
      const net::NodeId k = route[pos];
      const workload::MsId m = request.chain[pos];
      if (k == net::kInvalidNode) {
        // Eq. (9): Σ_k y(h,pos,k) == 1 — this position has no server.
        report.violations.push_back({Constraint::kAssignment, request.id,
                                     net::kInvalidNode, m,
                                     static_cast<int>(pos), 0.0, 1.0});
        structurally_ok = false;
      } else if (k < 0 || k >= nodes) {
        // Eq. (11), y side: the assignment indexes a node that does not
        // exist — a non-binary / out-of-domain decision variable.
        report.violations.push_back({Constraint::kBinarity, request.id, k, m,
                                     static_cast<int>(pos),
                                     static_cast<double>(k),
                                     static_cast<double>(nodes - 1)});
        structurally_ok = false;
      } else if (!placement.deployed(m, k)) {
        // Eq. (10): y(h,pos,k) <= x(i,k).
        report.violations.push_back({Constraint::kDeployment, request.id, k,
                                     m, static_cast<int>(pos), 1.0, 0.0});
        structurally_ok = false;
      }
    }

    if (!structurally_ok) {
      malformed = true;  // D_h undefined for a malformed assignment
      continue;
    }
    const std::size_t c =
        static_cast<std::size_t>(classes.class_of(request.id));
    const int rep = classes.cls(static_cast<int>(c)).representative;
    double d;
    if (std::ranges::equal(route, assignment.user_route(rep)) &&
        same_completion_inputs(request, scenario_->request(rep))) {
      // The representative has the lowest id in its class, so its walk has
      // already populated the memo by the time any other member reads it.
      if (!class_d_known[c]) {
        class_d[c] = completion_time(request, route);
        class_d_known[c] = true;
      } else {
        ++report.latency_memo_hits;
      }
      d = class_d[c];
      class_uniform_weight[c] += 1.0;
    } else {
      d = completion_time(request, route);
      total += d;
    }
    report.user_latency[static_cast<std::size_t>(request.id)] = d;
    // Eq. (4): per-user completion-time tolerance. An unreachable hop
    // (d == +inf) violates every finite deadline.
    if (d > request.deadline + kTol) {
      report.violations.push_back({Constraint::kDeadline, request.id,
                                   net::kInvalidNode, workload::kInvalidMs,
                                   -1, d, request.deadline});
    }
  }
  for (std::size_t c = 0; c < class_d.size(); ++c) {
    if (class_uniform_weight[c] > 0.0) {
      total += class_uniform_weight[c] * class_d[c];
    }
  }
  if (malformed) total = kInf;
  report.total_latency = total;
  const auto& constants = scenario_->constants();
  report.objective =
      constants.lambda * report.deployment_cost +
      (1.0 - constants.lambda) * constants.latency_weight * total;
  return report;
}

void install_validation(core::SoCLParams& params, bool log_violations) {
  params.post_solve_hook = [log_violations](const core::Scenario& scenario,
                                            const core::Solution& solution,
                                            obs::ObsSink* sink) {
    const SolutionValidator validator(scenario);
    const Report report =
        solution.assignment.has_value()
            ? validator.validate(solution.placement, *solution.assignment)
            : validator.validate_placement(solution.placement);
    obs::add_counter(sink, "socl.validate.runs", 1);
    obs::add_counter(sink, "socl.validate.violations",
                     static_cast<std::int64_t>(report.violations.size()));
    obs::add_counter(sink, "socl.validate.users_checked",
                     report.users_checked);
    if (std::isfinite(report.total_latency) &&
        std::isfinite(solution.evaluation.total_latency)) {
      obs::observe(sink, "socl.validate.latency_err_s",
                   std::abs(report.total_latency -
                            solution.evaluation.total_latency));
    }
    if (log_violations) {
      for (const auto& violation : report.violations) {
        util::log_warn("validator: ", violation.describe());
      }
    }
  };
}

}  // namespace socl::validate
