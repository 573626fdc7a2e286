// Geo-sharded decomposition solver (DESIGN.md §4j has the derivations).
//
// Solves each shard of a ShardPlan (metros of a multi-metro topology, or
// any disjoint node partition) as an independent SoCL sub-problem,
// coordinated only through the global budget K^max of Eq. (5), relaxed by
// a budget price μ: a shard's share of the priced Lagrangian is exactly a
// SoCL solve at λ' = (λ+μ)/(1+μ). The coordinator iterates broadcast μ →
// per-shard solves (parallel) → aggregate spend → price update. While every
// iterate overspends, μ ascends by subgradient steps with a geometric floor
// (μ ← max(μ + step·(spend−K)/K, 4μ)); the first feasible iterate brackets
// the clearing price, which is then bisected. An iterate is feasible when it
// is routable, per-node storage-feasible (Eq. 6) and within the budget. The
// accepted iterate's gap μ·(K − spend)/|primal| is its complementary-
// slackness residual (the primal is exact: per-shard routing equals global
// routing restricted to the shard). When no priced iterate fits, the quota
// fallback splits K into per-shard hard quotas and re-solves at the true λ.
//
// A one-shard plan stops after iteration 0 (μ = 0), so it is bit-identical
// to `SoCL::solve` (`bench_shard --check`, test_shard's 50-seed lane). Its
// one shard aliases the global Scenario (ShardProblem's aliasing
// constructor), so step() on it is the warm-start OnlineSoCL controller on
// the global problem, at no copy: the serving loop's one replan engine.
// The shards of a multi-shard plan share nothing but the thread-safe
// observability sink, so their solves fan out over a thread pool.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/online.h"
#include "core/socl.h"
#include "shard/shard_plan.h"
#include "util/thread_pool.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::shard {

/// The textbook subgradient state of the budget price: diminishing-step
/// ascent, correct for convex spend models, and unit-tested against a
/// convex toy spend model. ShardedSoCL layers the geometric floor and the
/// bracket bisection on top (see the file comment): at latency-dominated
/// scale the clearing price lies far beyond a diminishing-step horizon.
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
  /// price search MUST call this: a mid-day re-price resuming the old
  /// counter would step at initial_step/(1+t_old), near zero, and stall
  /// below the new clearing price.
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
  /// Per-shard solver configuration; its sink (thread-safe, as
  /// obs::Recorder is) takes every shard's solver metrics.
  core::SoCLParams solver;
  /// Iteration budget for the price search. Bracketing the clearing price
  /// takes ~log_4(μ*) iterations and each bisection halves the bracket, so
  /// 24 covers clearing prices up to ~10^6 with a fine final bracket.
  int max_iterations = 24;
  double initial_step = 0.75;
  /// Lanes of the shard fan-out, the calling thread included (0 = hardware
  /// concurrency).
  int threads = 0;
  /// Per-shard combination lanes override, the calling thread included
  /// (0 = keep solver.combination).
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
  std::optional<core::Assignment> assignment{};
  /// Global evaluation at the true λ (independent of the shard prices).
  core::Evaluation evaluation{};

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
  std::vector<double> price_trajectory{};
  /// Σ spend per iteration, aligned with price_trajectory.
  std::vector<double> spend_trajectory{};
  /// Per-shard spend and wall time of the accepted iterate.
  std::vector<double> shard_spend{};
  std::vector<double> shard_solve_s{};
  double runtime_seconds = 0.0;
};

class ShardedSoCL {
 public:
  /// The global scenario must outlive the solver; step() reads its
  /// workload. A plan with one shard holding every node aliases it, any
  /// other plan extracts each shard.
  ShardedSoCL(const core::Scenario& global, const ShardPlan& plan,
              ShardedParams params = {});

  /// Full coordinated solve: dual ascent, fallback, recombination.
  ShardedSolution solve();

  /// Per-shard incremental serving rung on the global scenario's current
  /// workload: only shards whose workload moved since the last step re-run
  /// their warm OnlineSoCL rung (repair + polish of the carried placement)
  /// at the frozen price or quotas; coordinated solves stay cold and
  /// re-seed the rungs. With one shard this is OnlineSoCL on the global
  /// scenario, bit for bit. A global re-price runs only when the aggregate
  /// spend drifts past reprice_threshold or breaches the budget; the first
  /// call coordinates. Returns the merged placement: no assignment, no
  /// evaluation.
  struct StepReport {
    int shards_resolved = 0;  ///< shards whose rung re-ran
    bool repriced = false;    ///< full dual-ascent loop re-ran
    core::Placement placement;  ///< the merged global placement
  };
  /// `force_all` re-runs every shard's rung even when its workload did not
  /// move (the serving loop's periodic replans).
  StepReport step(bool force_all = false);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardProblem& shard(int s) const {
    return shards_.at(static_cast<std::size_t>(s));
  }

 private:
  /// Per-shard solver configuration: `solver` with the `shard_threads`
  /// override applied.
  core::SoCLParams shard_solver_params() const;
  /// Sets shard s's constants: the global ones re-weighted to λ' at
  /// `price`, or — when `quotas` is non-null — at the true λ under the
  /// shard's hard quota. No-op on an aliased shard: one shard stops at
  /// μ = 0 (λ' = λ bit for bit) and quotas need two shards.
  void set_shard_constants(std::size_t s, double price,
                           const std::vector<double>* quotas);
  /// Cold-solves every shard at `price` (or under `quotas`), fanning out
  /// over pool_; results land by shard index.
  void solve_all_shards(double price, const std::vector<double>* quotas,
                        std::vector<core::Solution>& out,
                        std::vector<double>& solve_s);
  /// Re-solves one shard through its warm OnlineSoCL rung under the frozen
  /// price/quotas.
  void resolve_shard(int s);
  /// Price search and quota fallback into current_; re-seeds the rungs.
  void coordinate();
  /// Builds (once) and re-seeds the per-shard OnlineSoCL rungs from the
  /// accepted placements after a full coordinated solve.
  void reseed_rungs();
  core::Placement merged_placement() const;
  /// Recombines current_ into a global solution and evaluates it; needs
  /// the per-shard assignments, which release_assignments() drops.
  ShardedSolution recombine() const;
  void release_assignments();
  void emit_metrics(double runtime_seconds) const;

  const core::Scenario* global_;
  ShardedParams params_;
  std::vector<ShardProblem> shards_;
  /// Subgradient schedule of the pre-bracket ascent; reset() at the top of
  /// every price search so mid-day re-prices restart the step size.
  DualState dual_;
  /// Warm serving rungs, one per shard (built by the first solve()).
  std::vector<core::OnlineSoCL> online_rungs_;
  /// The shard fan-out's pool, built by the first multi-shard fan-out and
  /// kept for every later price iterate, fallback and re-price.
  std::unique_ptr<util::ThreadPool> pool_;

  /// Serving state: the accepted per-shard solutions (no assignments
  /// between calls) and the frozen coordination signals they were
  /// produced under.
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
  /// Coordination bookkeeping of the last price search (solve(), metrics).
  int iterations_ = 0;
  bool converged_ = false;
  double duality_gap_ = 0.0;
  std::vector<double> price_trajectory_;
  std::vector<double> spend_trajectory_;
};

}  // namespace socl::shard
