// Algorithms 3 & 4: Multi-scale Combination.
//
// Starting from the pre-provisioning P^t, instances of the same microservice
// are merged to trade deployment cost against latency:
//   - large-scale stage (parallel): while the budget (Eq. 5) is violated,
//     compute the latency-loss list ζ (Algorithm 4), select the ω-fraction
//     of instances with the smallest ζ, drop dependency-conflicted picks
//     (keep the smaller ζ of any pair adjacent in some user chain), and
//     combine them in one parallel sweep;
//   - small-scale stage (serial): remove instances one at a time by minimum
//     ζ while the objective gradient δ = Q' − Q'' + Θ stays positive, running
//     storage planning (Algorithm 5) after every move and rolling back moves
//     that violate a user deadline (Eq. 4).
//
// Internally users connect to instances with the paper's connection-update
// rule (same group, then maximum channel speed); the cheap ψ latency model
// drives ζ and Q. The final placement is re-routed exactly by the routing
// engine when SoCL (or the online warm start) assembles its solution.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/evaluator.h"
#include "core/preprovision.h"
#include "core/routing_engine.h"
#include "util/thread_pool.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::core {

struct CombinationConfig {
  /// Fraction of the latency-loss list combined per parallel round (ω).
  double omega = 0.2;
  /// Disturbance factor Θ: tolerated objective rise per serial move.
  double theta = 25.0;
  /// Worker threads (0 = hardware concurrency) of the parallel stage and
  /// the routing engine's scoring pool. Any value but 1 also fans candidate
  /// scoring out over that pool and descends the multi-start's dense basin
  /// on a helper thread beside the serial stage and polish; 1 keeps the
  /// whole run on the calling thread. Results and work counters are the
  /// same either way (the determinism tests in test_routing_engine and
  /// test_combination enforce it).
  int threads = 0;
  /// Score classes through the SoA kernel (DESIGN.md §4h): a lane-batched
  /// chain DP over contiguous buffers that evaluates all first-layer
  /// conditionings at once. false keeps the legacy per-conditioning
  /// ChainRouter path; results are bit-identical either way (enforced by
  /// the differential harness's kernel lane and `bench_scale --check`),
  /// only the wall time differs.
  bool use_score_kernel = true;
  bool use_parallel_stage = true;   // ablation switches
  bool use_storage_planning = true;
  bool use_rollback = true;
  /// Post-descent relocation polish: hill-climb single-instance migrations
  /// (same mechanics as Algorithm 5's moves, but objective-driven). An
  /// implementation extension documented in DESIGN.md; ablated in the
  /// bench_ablation harness.
  bool use_relocation = true;
  /// Multi-start: additionally descend from the dense placement (every
  /// demand node hosts its services) with the screened move engine and keep
  /// the better basin. Costs roughly one extra descent of CPU time, run on
  /// its own scoring engine and, unless threads == 1, concurrently with the
  /// main descent; still far cheaper than GC-OG's exhaustive per-move scans.
  bool use_multi_start = true;
  /// Observability sink: stage spans (`combination.*`, `storage_planning`),
  /// ζ-list spans, and the `socl.combination.*` counters are emitted here;
  /// also forwarded to the routing engine. SoCL::solve copies its own sink
  /// in when this is null; null disables instrumentation (DESIGN.md §4e).
  obs::ObsSink* sink = nullptr;
};

struct CombinationStats {
  int parallel_rounds = 0;
  int parallel_removals = 0;
  int serial_removals = 0;
  int rollbacks = 0;
  /// Wall time per combination stage (seconds).
  double parallel_stage_seconds = 0.0;
  double serial_stage_seconds = 0.0;
  double polish_seconds = 0.0;
  /// The dense basin's own descent; it overlaps the serial stage and the
  /// polish unless CombinationConfig::threads == 1.
  double multi_start_seconds = 0.0;
  /// Routing-engine counters accumulated across the whole run.
  RoutingCounters routing;
};

/// One latency-loss entry ζ_{i,k} (Definition 8) with its objective
/// gradient: the objective change of removing the instance,
/// (1-λ)·w·ζ − λ·κ(m_i). Lists are ordered by ascending gradient so the
/// front entries are the most profitable merges.
struct LatencyLoss {
  MsId service = workload::kInvalidMs;
  NodeId node = net::kInvalidNode;
  double zeta = 0.0;
  double gradient = 0.0;
};

class Combiner {
 public:
  Combiner(const Scenario& scenario, const Partitioning& partitioning,
           const CombinationConfig& config);

  /// Runs both stages and the polish on a copy of the pre-provisioned
  /// placement, and the dense-basin multi-start beside them.
  Placement run(const Preprovisioning& pre, CombinationStats* stats = nullptr);

  /// Algorithm 4 on an arbitrary placement: latency losses of every
  /// removable instance (microservices at one instance are skipped),
  /// ascending by ζ. Exposed for tests and the GC-OG baseline.
  std::vector<LatencyLoss> latency_losses(const Placement& placement) const;

  /// The connection-update rule: best serving node for (user, m) under
  /// `placement`, preferring the user's group, maximising channel speed.
  /// kInvalidNode when m has no instance at all.
  NodeId best_connection(int user, MsId m, const Placement& placement) const;
  /// The same rule keyed by attachment node: the user enters only through
  /// its attach node, so best_connection(u, m, p) ==
  /// connection_at(attach(u), m, p).
  NodeId connection_at(NodeId attach, MsId m,
                       const Placement& placement) const;

  /// Cheap completion-time estimate D̃_h under the connection map implied by
  /// `placement` (upper-bounds the exact router's D_h).
  double estimated_completion(const workload::UserRequest& request,
                              const Placement& placement) const;

  /// Σ_h D̃_h plus cost, combined into the objective (the Q of Algorithm 3).
  double estimated_objective(const Placement& placement) const;

  /// Objective used by the serial stage's Q'/Q'': the exact evaluation when
  /// the instance is small enough to route exactly per move, otherwise the
  /// connection-rule estimate. Exposed for tests.
  double serial_objective(const Placement& placement) const;

  /// Estimate-regime incremental scoring (DESIGN.md §4c): caches the
  /// connection table and per-class estimates under `placement` and returns
  /// estimated_objective(placement). Subsequent estimated_objective_with_change
  /// calls re-estimate only the classes a move can touch.
  double refresh_estimate_cache(const Placement& placement) const;
  /// estimated_objective(trial), bitwise, assuming `trial` differs from the
  /// cached placement only in instances of microservice `changed`.
  double estimated_objective_with_change(const Placement& trial,
                                         MsId changed) const;

  /// The incremental routing engine backing all exact scoring: its per-class
  /// route cache reroutes only the classes a move can touch (DESIGN.md §4c).
  /// Exposed so SoCL::solve can reuse its cache/counters for the final
  /// routing pass.
  RoutingEngine& engine() const { return engine_; }

  /// Algorithm 3 line 4: among selected instances of chain-adjacent
  /// microservices, keep the smaller ζ (gradient, then ids as tiebreaks).
  /// Returns the discard mask. Exposed for the regression tests.
  std::vector<bool> dependency_conflict_filter(
      const std::vector<LatencyLoss>& omega_set) const;

  /// Screened best-move local search over {remove, add, relocate} moves,
  /// wrapped with iterated perturbation kicks. Public so the online solver
  /// can refine warm-started placements.
  void polish(Placement& placement) const;
  /// One descent pass of the polish (no kicks).
  void polish_descend(Placement& placement) const;
  /// Budget-forced screened removals: drives an over-budget placement to
  /// the budget with estimate-screened, exactly-verified merges.
  void descend_to_budget(Placement& placement) const;

 private:

  /// The multi-start's dense basin, descended by a second Combiner (own
  /// routing engine, kernel arenas and estimate cache), so it shares no
  /// mutable state with the main descent. Every score is a pure function of
  /// (placement, scenario), so where the basin runs changes wall time only.
  struct DenseBasin {
    Placement placement;
    /// Within budget and, with roll-back on, every deadline; only then is
    /// `objective` (the serial objective) computed, +inf otherwise.
    bool feasible;
    double objective;
    double seconds;  ///< wall time of the basin's own descent
    /// The basin engine's work, folded into this combiner's totals by run().
    RoutingCounters routing;
    std::int64_t classes_reestimated;
  };
  DenseBasin descend_dense_basin() const;

  double psi_for_instance(MsId m, NodeId k, const Placement& placement) const;
  /// Per-microservice work shared by every removable instance of m in one
  /// latency_losses pass: the classes whose chains use m (ascending class
  /// id), bucketed by their connection under the scored placement. Hoisting
  /// this out of zeta_for_instance turns Algorithm 4's ζ sweep from
  /// O(instances · classes) connection scans into O(classes) per
  /// microservice, with bit-identical sums (same contributing classes,
  /// same order).
  struct ZetaPrep {
    std::vector<int> class_ids;
    /// served[k]: indices into class_ids whose connection is node k
    /// (ascending, so per-instance sums keep the class-major order). Lets
    /// the ζ evaluation touch only the classes the instance actually serves.
    std::vector<std::vector<int>> served;
  };
  double zeta_for_instance(MsId m, NodeId k, const Placement& placement,
                           const ZetaPrep& prep) const;
  bool violates_deadline(const Placement& placement) const;
  bool use_exact_eval() const;
  /// D̃_h with the connection of each chain microservice supplied by
  /// `connect(m)`; the one arithmetic path behind every estimate, so cached
  /// and from-scratch estimates agree bit for bit.
  template <typename Connect>
  double estimate_chain(const workload::UserRequest& request,
                        const Connect& connect) const;
  /// Refreshes the cache of the scoring regime in force (`exact`: the
  /// engine's route cache; otherwise the estimate cache) and returns the
  /// objective of `placement` under that regime.
  double refresh_scoring(const Placement& placement, bool exact) const;
  /// Objective of `trial`, which differs from the last refresh_scoring
  /// placement only in instances of `changed`; `removed` names the node of a
  /// single-instance removal (kInvalidNode for any other move).
  double score_move(const Placement& trial, MsId changed, NodeId removed,
                    bool exact, RoutingEngine::ScoreContext& ctx) const;

  const Scenario* scenario_;
  const Partitioning* partitioning_;
  CombinationConfig config_;
  Evaluator evaluator_;
  /// Incremental route cache + scratch buffers + candidate fan-out.
  mutable RoutingEngine engine_;
  /// group_index_[m][k]: group of node k for microservice m, or -1.
  std::vector<std::vector<int>> group_index_;
  /// Microservice pairs adjacent in some user chain (dependency conflicts).
  std::vector<std::vector<bool>> dependency_adjacent_;

  /// Connection-rule estimate cache: the estimate-regime counterpart of the
  /// engine's route cache. Written only by refresh_estimate_cache (serial),
  /// read concurrently by score_candidates workers.
  struct EstimateCache {
    /// connection[m · nodes + a]: connection_at(a, m, cached placement).
    std::vector<NodeId> connection;
    /// Per class (class index): weight and estimated completion D̃.
    std::vector<double> weight;
    std::vector<double> completion;
    /// Σ_c weight_c · D̃_c, totalised class-major.
    double latency_sum = 0.0;
  };
  mutable EstimateCache estimate_;
  /// Classes re-estimated by estimated_objective_with_change; counted only
  /// while a sink is attached (`socl.combination.classes_reestimated`).
  mutable std::atomic<std::int64_t> classes_reestimated_{0};
};

}  // namespace socl::core
