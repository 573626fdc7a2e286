// Independent constraint validator (DESIGN.md §4f).
//
// Every solver in the repo — the SoCL heuristic, the exact branch-and-bound,
// the MIP — is scored by Evaluator/ChainRouter. A bug in that shared scoring
// path is therefore invisible to cross-checks between them. SolutionValidator
// closes the loop: given a Scenario + Placement + Assignment it recomputes
// D_h from first principles (Eq. 2: d_in + per-hop q(m_i)/c(v_k) +
// virtual-link transfers + d_out) using only `net::` primitives — it builds
// its own min-hop tables from the raw network and shares no code with
// ChainRouter or Evaluator — and audits the constraint system:
//
//   Eq. (4)  per-user deadline       D_h <= D_h^max
//   Eq. (5)  provisioning budget     Σ κ(m_i)·x(i,k) <= K^max
//   Eq. (6)  per-node storage        Σ φ(m_i)·x(i,k) <= Φ(v_k)
//   Eq. (9)  single assignment       Σ_k y(h,pos,k) == 1
//   Eq. (10) assignment ⇒ deployment y(h,pos,k) <= x(i,k)
//   Eq. (11) binarity                x, y ∈ {0,1} (id-range + bookkeeping)
//
// Violations come back as structured records (constraint id, witness user /
// node / microservice, lhs/rhs/slack) so a differential-fuzz failure names
// the broken equation instead of a wrong number in a benchmark table.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/socl.h"
#include "net/shortest_path.h"
#include "net/virtual_link.h"

namespace socl::validate {

/// Constraint taxonomy, one id per checked equation of Section III.
enum class Constraint {
  kDeadline,    ///< Eq. (4): completion time within D_h^max
  kBudget,      ///< Eq. (5): deployment cost within K^max
  kStorage,     ///< Eq. (6): per-node storage within Φ(v_k)
  kAssignment,  ///< Eq. (9): every chain position assigned exactly one node
  kDeployment,  ///< Eq. (10): assigned node hosts the microservice
  kBinarity,    ///< Eq. (11): decision variables binary / bookkeeping sound
};

/// Stable short name, e.g. "eq4.deadline" (used in logs and test matchers).
const char* constraint_name(Constraint constraint);

/// One constraint violation with its witness and the failing inequality.
struct Violation {
  Constraint constraint;
  /// Witness indices; -1 / kInvalidNode / kInvalidMs when not applicable.
  int user = -1;
  net::NodeId node = net::kInvalidNode;
  workload::MsId microservice = workload::kInvalidMs;
  int position = -1;  ///< chain position for Eq. (9)/(10) violations
  /// The failed inequality lhs <= rhs; slack() < 0 quantifies the breach.
  double lhs = 0.0;
  double rhs = 0.0;
  double slack() const { return rhs - lhs; }

  /// One-line human-readable description naming the equation and witness.
  std::string describe() const;
};

/// Result of one validation pass, plus the independently recomputed
/// quantities a differential harness compares against Evaluation.
struct Report {
  std::vector<Violation> violations;
  /// Recomputed per-user D_h (Eq. 2); +inf marks an unreachable hop.
  std::vector<double> user_latency;
  /// Σ_h D_h over all users (+inf if any hop is unreachable).
  double total_latency = 0.0;
  /// Recomputed Σ κ(m_i)·x(i,k).
  double deployment_cost = 0.0;
  /// Recomputed λ·cost + (1-λ)·w·Σ D_h (Eq. 3).
  double objective = 0.0;
  int users_checked = 0;
  /// D_h evaluations served from the request-class memo instead of a fresh
  /// Eq. (2) walk (members routed identically to their representative,
  /// with the same attach node, chain and payloads).
  int latency_memo_hits = 0;

  bool ok() const { return violations.empty(); }
  /// Count of violations of one constraint id.
  int count(Constraint constraint) const;
  /// Multi-line summary ("OK" or one line per violation).
  std::string summary() const;
};

/// Recomputes everything from the raw substrate network: the constructor
/// runs its own BFS min-hop pass and derives its own virtual-link rates, so
/// it cross-checks the Scenario caches as well as the routing code.
class SolutionValidator {
 public:
  explicit SolutionValidator(const core::Scenario& scenario);

  /// Full audit: Eqs. (4)-(6) and (9)-(11) against placement + assignment.
  Report validate(const core::Placement& placement,
                  const core::Assignment& assignment) const;

  /// Placement-only audit: Eqs. (5), (6) and the x-side of (11). Used for
  /// solutions that never produced a routable assignment.
  Report validate_placement(const core::Placement& placement) const;

  /// Independent D_h (Eq. 2) for one user's fixed route; +inf when a hop
  /// crosses a disconnected component.
  double completion_time(const workload::UserRequest& request,
                         std::span<const net::NodeId> route) const;

 private:
  void check_placement(const core::Placement& placement, Report& report) const;

  const core::Scenario* scenario_;
  net::ShortestPaths paths_;   ///< own BFS tables, not the scenario's
  net::VirtualLinks vlinks_;   ///< own harmonic-mean rates
};

/// Wires the validator into `SoCL::solve` as the post-solve debug hook
/// (SoCLParams::post_solve_hook): every solve is re-audited, the
/// `socl.validate.*` counters of docs/METRICS.md are emitted through the
/// pipeline's ObsSink, and violations are logged at Warn level when
/// `log_violations` is set. Opt-in — production solves pay nothing.
void install_validation(core::SoCLParams& params, bool log_violations = true);

}  // namespace socl::validate
