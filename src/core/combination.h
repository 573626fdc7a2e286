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
#include <span>

#include "core/evaluator.h"
#include "core/preprovision.h"
#include "core/routing_engine.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::core {

struct CombinationConfig {
  /// Fraction of the latency-loss list combined per parallel round (ω).
  double omega = 0.2;
  /// Disturbance factor Θ: tolerated objective rise per serial move.
  double theta = 25.0;
  /// Lanes, the calling thread included, that each of the run's fan-outs
  /// takes of util::shared_pool() (0 = the whole pool; wider than the pool
  /// is clamped): the parallel stage's ζ sweep, candidate scoring, and the
  /// multi-start's dense basin beside the main stages. 1 keeps the whole
  /// run on the calling thread. Results and work counters are the same
  /// either way (the determinism tests in test_routing_engine and
  /// test_combination enforce it).
  int threads = 0;
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
  /// its own scoring engine, beside the main descent when a lane is free;
  /// still far cheaper than GC-OG's exhaustive per-move scans.
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
  /// The dense basin's own descent; it overlaps the main stages when it
  /// gets a lane of its own (never when CombinationConfig::threads == 1).
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
  /// `placement` (upper-bounds the exact router's D_h). Reads the class
  /// view, which it first syncs to the workload epoch (possibly rebuilding
  /// the engine's class index and kernel view): call from serial code only,
  /// never concurrently with another entry point of this combiner. No
  /// shipped binary calls it: it is the per-request, from-scratch oracle
  /// the class-view estimates (violates_deadline, the estimate cache) are
  /// tested against.
  double estimated_completion(const workload::UserRequest& request,
                              const Placement& placement) const;

  /// Σ_h D̃_h plus cost, combined into the objective (the Q of Algorithm 3).
  /// Serial code only, like estimated_completion.
  double estimated_objective(const Placement& placement) const;

  /// The roll-back check of Eq. (4): some class misses its deadline (or is
  /// unroutable) under `placement` — routed exactly when use_exact_eval(),
  /// otherwise by the connection-rule estimate. Serial code only, like
  /// estimated_completion. Exposed for tests.
  bool violates_deadline(const Placement& placement) const;

  /// Objective used by the serial stage's Q'/Q'': the exact evaluation when
  /// the instance is small enough to route exactly per move, otherwise the
  /// connection-rule estimate. Exposed for tests.
  double serial_objective(const Placement& placement) const;

  /// Estimate-regime incremental scoring (DESIGN.md §4c): caches the
  /// connection table and the per-class estimates under `placement`, and
  /// returns estimated_objective(placement). Subsequent
  /// estimated_objective_with_change calls re-estimate only the classes a
  /// move can touch. Serial code only.
  double refresh_estimate_cache(const Placement& placement) const;
  /// estimated_objective(trial), bitwise, assuming `trial` differs from the
  /// cached placement only in instances of microservice `changed`. Writes
  /// only `scratch`, so score_candidates workers may call it concurrently,
  /// each with its arena's scratch.
  double estimated_objective_with_change(const Placement& trial, MsId changed,
                                         EstimateScratch& scratch) const;

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
  /// run()'s main descent on `placement`: the parallel stage, storage
  /// planning, the serial stage and the polish, timed into `local_stats`.
  void run_stages(Placement& placement, CombinationStats& local_stats);

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
  bool use_exact_eval() const;

  /// Everything estimate_chain reads of one demand tuple, borrowed either
  /// from a UserRequest or from a row of the kernel's ClassDemandSoA.
  struct ChainView {
    const MsId* chain;
    std::size_t length;
    const double* edge_data;  ///< edge e joins chain positions e and e+1
    NodeId attach;
    double data_in;
    double data_out;
  };
  static ChainView class_chain(const workload::ClassDemandSoA& soa, int c);
  /// The flat class view every class-indexed estimate reads: the engine's
  /// kernel, synced to the workload epoch; call from serial code only.
  const ScoreKernel& class_view() const;
  /// The connection-update rule over `hosts`, the nodes hosting m in
  /// ascending order; connection_at and every connection table share it.
  NodeId connection_among(NodeId attach, MsId m,
                          std::span<const NodeId> hosts) const;
  /// connection[m · nodes + a] = connection_at(a, m, placement).
  void fill_connections(const Placement& placement,
                        std::vector<NodeId>& connection,
                        std::vector<NodeId>& hosts) const;
  /// D̃_h with the connection of each chain microservice supplied by
  /// `connect(m)` and compute times read from `compute` ([m · nodes + k]);
  /// the one arithmetic path behind every estimate, so cached and
  /// from-scratch estimates agree bit for bit.
  template <typename Connect>
  double estimate_chain(const ChainView& chain, const double* compute,
                        const Connect& connect) const;
  /// D̃ of class c under a filled connection table.
  double estimate_class(const ScoreKernel& view, const NodeId* connection,
                        int c) const;
  /// Fills scratch.row / scratch.moved with `changed`'s connections under
  /// `trial`; true when some attach node reconnects.
  bool connection_row_moved(const Placement& trial, MsId changed,
                            EstimateScratch& scratch) const;
  /// D̃ of class c under the trial whose row connection_row_moved filled:
  /// the cached connections with the changed service's row swapped in.
  double reestimate(int c, MsId changed, const EstimateScratch& scratch) const;
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
    /// The class view the cache was built from (weights, deadlines, chains).
    const ScoreKernel* view = nullptr;
    /// connection[m · nodes + a]: connection_at(a, m, cached placement).
    std::vector<NodeId> connection;
    /// Per class (class index): estimated completion D̃.
    std::vector<double> completion;
    /// Σ_c weight_c · D̃_c, totalised class-major.
    double latency_sum = 0.0;
  };
  mutable EstimateCache estimate_;
  /// Hosts buffer of the serial refresh_estimate_cache.
  mutable std::vector<NodeId> refresh_hosts_;
  /// Classes re-estimated by estimated_objective_with_change; counted only
  /// while a sink is attached (`socl.combination.classes_reestimated`).
  mutable std::atomic<std::int64_t> classes_reestimated_{0};
};

}  // namespace socl::core
