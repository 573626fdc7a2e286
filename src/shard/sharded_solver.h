// Geo-sharded decomposition solver (DESIGN.md §4j).
//
// Solves each shard of a ShardPlan (metros of a multi-metro topology, or
// any disjoint node partition) as an independent SoCL sub-problem on its own
// threads, coordinated only through the shared global provisioning budget
// K^max of Eq. (5). The coupling constraint is relaxed by dual ascent on a
// budget price μ:
//
//   L(x, μ) = Σ_s [ λ·cost_s + (1-λ)·w·latency_s ] + μ·(Σ_s cost_s − K)
//
// Minimising L shard-by-shard is exactly a SoCL solve with the re-priced
// objective weight λ' = (λ+μ)/(1+μ) (the priced Lagrangian equals
// (1+μ) · [λ'·cost + (1-λ')·w·latency] per shard), so the coordinator
// iterates: broadcast μ → per-shard solve at λ' (parallel) → aggregate
// spend → price update — until the gap falls under the tolerance or the
// iteration cap is hit. The price schedule has two phases. While every
// iterate overspends, μ ascends by subgradient steps with a geometric
// floor, μ ← max(μ + step·(spend−K)/K, 4μ): at latency-dominated scale
// the clearing price grows with the workload (λ' must approach 1 before
// shards give up replicas), so a diminishing-step ascent would stall far
// below it. The first feasible iterate brackets the clearing price
// between the largest infeasible and smallest feasible μ seen; the
// schedule then bisects the bracket. A feasible iterate must clear Eq. (5)
// *and* per-shard routability *and* per-node storage (Eq. 6): a shard has
// only its own nodes to host replicas on, so a latency-greedy iterate can
// overflow storage even under budget — the same rising λ' sheds replicas
// until both capacity constraints fit. Per-iteration bookkeeping:
//
//   primal(t) = Σ_s obj_λ(x_s)   (true-λ objective of the recombined iterate;
//                                 exact because per-shard routing equals
//                                 global routing restricted to the shard)
//   gap       = μ*·(K − spend*) / |primal*|   at the accepted iterate
//
// The gap is the complementary-slackness residual of the accepted
// feasible iterate — exactly primal* − L(x*, μ*), the distance to its own
// Lagrangian value. It certifies how tightly the price cleared the
// budget: 0 when the budget is slack (μ* = 0) or exactly exhausted, and
// small when the accepted spend approaches K. (With a heuristic inner
// solver the textbook bound max_t q(μ_t) is unavailable — the per-shard
// solves do not certifiably minimise the Lagrangian — so this residual is
// the honest surrogate.)
//
// When no priced iterate lands within the budget, the quota-negotiation
// fallback splits the budget into per-shard hard quotas — each shard's
// minimal feasible spend (every used microservice deployed once) as the
// floor, the residual budget split proportionally to the shard's marginal
// demand above its floor at the final price — and re-solves each shard at
// the true λ under its quota, guaranteeing Σ quotas ≤ K.
//
// The degenerate one-shard plan short-circuits after iteration 0 (μ = 0,
// budget K is exactly the unsharded solve), so single-shard runs are
// bit-identical to `SoCL::solve` — objectives, placements, assignments —
// which `bench_shard --check` and test_shard's 50-seed lane enforce.
//
// Nothing is shared across shards: every shard owns its Scenario, request
// classes, route caches, and scoring arenas (ShardProblem extraction), so
// shard solves fan out over a thread pool without synchronisation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/online.h"
#include "core/socl.h"
#include "shard/shard_plan.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::shard {

/// The textbook subgradient state of the budget price: diminishing-step
/// ascent, correct for convex spend models. Kept as a tiny standalone
/// value type so the ascent arithmetic is unit-testable against a convex
/// toy spend model (test_shard's monotonicity lane). ShardedSoCL::solve
/// layers a geometric growth floor and bracket bisection on top (see the
/// file comment) because heuristic per-shard solves at latency-dominated
/// scale put the clearing price far beyond a diminishing-step horizon.
struct DualState {
  double price = 0.0;         ///< μ >= 0, the budget multiplier
  double initial_step = 0.75; ///< relative step scale at iteration 0
  int iteration = 0;

  /// One subgradient step on the relaxed budget constraint: the subgradient
  /// of the dual at μ is g = spend(μ) − budget, normalised by the budget so
  /// the step scale is dimensionless. The step size diminishes as
  /// initial_step / (1 + t) (the classic divergent-series schedule), and
  /// the price is projected onto μ >= 0. Returns the updated price.
  double update(double spend, double budget);

  /// Restarts the diminishing-step schedule at `resume_price`. Every fresh
  /// price search MUST call this: a drift-triggered global re-price mid-day
  /// that resumed the old iteration counter would take its first step at
  /// initial_step/(1+t_old) — near zero after a converged morning solve —
  /// and stall below the new clearing price, the exact stall the geometric
  /// floor exists to avoid at solve time.
  void reset(double resume_price = 0.0) {
    price = resume_price;
    iteration = 0;
  }
};

/// Quota negotiation: splits `budget` into per-shard quotas. `floors[s]` is
/// shard s's minimal feasible spend, `demands[s]` its observed spend at the
/// final price (the marginal-value signal). Guarantees Σ quotas <= budget
/// and quotas[s] >= floors[s] whenever Σ floors <= budget; when the floors
/// alone exceed the budget (globally infeasible) the quotas degrade to a
/// proportional scale-down of the floors.
std::vector<double> negotiate_quotas(double budget,
                                     std::span<const double> floors,
                                     std::span<const double> demands);

struct ShardedParams {
  /// Per-shard solver configuration. The per-shard sink is always forced to
  /// null — coordination metrics are emitted once, by the coordinator.
  core::SoCLParams solver;
  /// Iteration budget for the price search. Bracketing the clearing price
  /// takes ~log_4(μ*) iterations and each bisection halves the bracket, so
  /// 24 covers clearing prices up to ~10^6 with a fine final bracket.
  int max_iterations = 24;
  double initial_step = 0.75;
  /// Worker threads fanning shard solves out (0 = hardware concurrency).
  int threads = 0;
  /// Per-shard combination threads override (0 = keep solver.combination).
  /// Many-shard sweeps set a small value to bound thread oversubscription;
  /// results never depend on it (deterministic parallel scoring).
  int shard_threads = 0;
  /// Incremental serving: a step() re-prices globally when the aggregate
  /// spend drifts from the priced-in spend by more than this fraction of
  /// the budget (or breaches the budget outright).
  double reprice_threshold = 0.05;
  /// Configuration of the per-shard warm rungs step() runs (staleness
  /// threshold, periodic full-resolve cadence). Its `socl` member is
  /// ignored: `solver` above is the single source of per-shard solver
  /// configuration.
  core::OnlineParams online;
  /// `socl.shard.*` metrics (docs/METRICS.md); nullptr disables.
  obs::ObsSink* sink = nullptr;
};

/// The recombined global solution plus coordination bookkeeping.
struct ShardedSolution {
  core::Placement placement;
  std::optional<core::Assignment> assignment;
  /// Global evaluation at the true λ (independent of the shard prices).
  core::Evaluation evaluation;

  int shards = 0;
  int iterations = 0;           ///< priced iterations executed
  bool converged = false;       ///< gap <= tolerance before the cap
  bool used_quota_fallback = false;
  double price = 0.0;           ///< μ of the accepted iterate
  /// Complementary-slackness gap μ·(K − spend)/|primal| of the accepted
  /// iterate; 0 for one-shard plans, +inf after a quota fallback (the
  /// negotiated solution carries no price certificate).
  double duality_gap = 0.0;
  double spend = 0.0;           ///< Σ_s deployment cost (Eq. 5 lhs)
  double budget = 0.0;          ///< K^max (Eq. 5 rhs)
  /// μ_t per iteration (the λ-trajectory series of bench_shard's CSV).
  std::vector<double> price_trajectory;
  /// Σ spend per iteration, aligned with price_trajectory.
  std::vector<double> spend_trajectory;
  /// Per-shard spend and wall time of the accepted iterate.
  std::vector<double> shard_spend;
  std::vector<double> shard_solve_s;
  double runtime_seconds = 0.0;
};

class ShardedSoCL {
 public:
  /// The global scenario must outlive the solver (shards reference its
  /// catalog and step() re-localizes against its node ids).
  ShardedSoCL(const core::Scenario& global, const ShardPlan& plan,
              ShardedParams params = {});

  /// Full coordinated solve: dual ascent, fallback, recombination.
  ShardedSolution solve();

  /// Per-shard incremental serving rung: replaces the workload, re-solves
  /// ONLY the shards whose sub-workload actually moved (at the frozen
  /// accepted price, or frozen quotas after a fallback), and recombines.
  /// Each re-solve runs the shard's warm-started OnlineSoCL rung (repair +
  /// polish of its carried placement); full coordinated solves stay cold
  /// and re-seed the rungs with the accepted per-shard placements. With one
  /// shard the serving ladder is bit-identical to driving OnlineSoCL
  /// directly (the serve-loop identity lane of test_serving).
  /// A global re-price — the full dual-ascent loop — runs only when the
  /// aggregate spend drifts past reprice_threshold or breaches the budget.
  /// Requires a prior solve(); runs one implicitly otherwise.
  struct StepReport {
    int shards_resolved = 0;  ///< shards whose workload epoch moved
    bool repriced = false;    ///< full dual-ascent loop re-ran
    ShardedSolution solution;
  };
  /// `force_all` re-runs every shard's rung even when its workload did not
  /// move — the serving loop's periodic-replan schedule, which gives each
  /// shard its OnlineSoCL staleness check / polish on the legacy cadence.
  StepReport step(const std::vector<workload::UserRequest>& requests,
                  bool force_all = false);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardProblem& shard(int s) const {
    return shards_.at(static_cast<std::size_t>(s));
  }
  const ShardedParams& params() const { return params_; }

 private:
  /// Per-shard solver configuration: `solver` with the sink forced null
  /// (coordination metrics are emitted once, by the coordinator) and the
  /// `shard_threads` override applied.
  core::SoCLParams shard_solver_params() const;
  /// Sets shard s's constants: the global ones re-weighted to λ' at
  /// `price`, or — when `quotas` is non-null — at the true λ under the
  /// shard's hard quota.
  void set_shard_constants(std::size_t s, double price,
                           const std::vector<double>* quotas);
  /// Cold-solves every shard at `price` (or under `quotas`), fanning out
  /// over the pool; results land by shard index.
  void solve_all_shards(double price, const std::vector<double>* quotas,
                        std::vector<core::Solution>& out,
                        std::vector<double>& solve_s);
  /// Re-solves one shard through its warm OnlineSoCL rung under the frozen
  /// price/quotas.
  void resolve_shard(int s);
  /// Builds (once) and re-seeds the per-shard OnlineSoCL rungs from the
  /// accepted placements after a full coordinated solve.
  void reseed_rungs();
  /// Recombines current_ into a global solution and evaluates it.
  ShardedSolution recombine() const;
  void emit_metrics(const ShardedSolution& solution) const;

  const core::Scenario* global_;
  ShardedParams params_;
  std::vector<ShardProblem> shards_;
  /// Subgradient schedule of the pre-bracket ascent; reset() at the top of
  /// every solve() so mid-day re-prices restart the step size.
  DualState dual_;
  /// Warm serving rungs, one per shard (built by the first solve()).
  std::vector<core::OnlineSoCL> online_rungs_;

  /// Serving state: the accepted per-shard solutions and the frozen
  /// coordination signals they were produced under.
  std::vector<core::Solution> current_;
  std::vector<double> current_solve_s_;
  double price_ = 0.0;
  std::optional<std::vector<double>> quotas_;
  double spend_at_price_ = 0.0;
  /// Whether the accepted solve was per-node storage-feasible (Eq. 6): a
  /// serving rung that later overflows its shard's storage triggers a
  /// re-price, but only from a feasible baseline (thrash guard).
  bool storage_ok_at_price_ = true;
  bool solved_ = false;
  /// Coordination bookkeeping of the last full solve (reported by step()).
  int iterations_ = 0;
  bool converged_ = false;
  double duality_gap_ = 0.0;
  std::vector<double> price_trajectory_;
  std::vector<double> spend_trajectory_;
};

}  // namespace socl::shard
