// Incremental routing engine for the combination stage.
//
// The multi-scale combiner (Algorithm 3) scores hundreds of candidate moves
// per round, and each exact score re-runs the chain DP for the classes a
// move can affect. This engine centralises everything that makes those scans
// cheap:
//   - request-class aggregation (DESIGN.md §4g): users sharing (attach node,
//     chain, demand profile) are indistinguishable to the router, so the
//     engine routes one representative per class and folds weight · value
//     into every total — O(classes) DP runs instead of O(users). The
//     differential harness's aggregation lane checks the collapse against a
//     per-member ChainRouter oracle;
//   - the SoA scoring kernel (DESIGN.md §4h): classes are scored through
//     core/score_kernel.h by default — a lane-batched DP over contiguous
//     float64 buffers that evaluates all first-layer conditionings at once,
//     bit-identical to the legacy ChainRouter path (the differential kernel
//     lane enforces this). use_kernel = false keeps the legacy path for
//     differential checking and the bench_scale head-to-head;
//   - a placement-epoch-keyed per-class route cache: refresh() routes every
//     class once and stamps an epoch; candidate scoring then reroutes only
//     the classes whose chains contain the changed microservice, and for
//     removals only the classes whose cached route actually used the removed
//     instance. refresh() also re-derives the class index (and re-syncs the
//     kernel's SoA buffers) whenever the scenario's workload epoch moved, so
//     a mutated workload can never be scored against a stale view;
//   - per-worker scratch state (RouteScratch + kernel arenas) for the
//     fan-out, plus a mutex-guarded checkout pool backing the convenience
//     entry points, so they are safe to call concurrently with a running
//     score_candidates dispatch (the tsan job covers the scenario);
//   - score_candidates(): a deterministic fan-out of independent candidate
//     scores over util::ThreadPool. Scores are written by candidate index and
//     every worker computes a pure function of the cache, so the result is
//     bit-identical to the serial loop regardless of thread count. refresh()
//     shards its per-class routing the same way and totalises with a
//     fixed-order serial reduction, so the cached sum is bit-identical too;
//   - RoutingCounters: routes computed, cache hits, reroutes avoided, kernel
//     stats, and wall time per stage, threaded into CombinationStats and
//     printed by bench_micro / bench_scale so speedups are measured, not
//     asserted.
//
// DESIGN.md §4c documents the cache/scoring contract; set_sink() attaches
// the observability layer (§4e) — refresh/score/route_all emit `routing.*`
// spans and SoCL::solve flushes the counters as `socl.routing.*` and
// `socl.kernel.*` metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/routing.h"
#include "core/score_kernel.h"
#include "util/thread_pool.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::core {

/// Perf counters of the incremental scoring path. Integer counters are
/// summed across workers (order-independent), so parallel runs report the
/// same totals as serial ones.
struct RoutingCounters {
  /// Full chain-DP evaluations (route / route_cost / kernel batch runs);
  /// one run covers a whole request class.
  std::int64_t routes_computed = 0;
  /// Class latencies served straight from the epoch cache while scoring.
  std::int64_t cache_hits = 0;
  /// Cache entries skipped during removal scoring because their cached
  /// route never touched the removed instance (the cache's headline saving).
  std::int64_t reroutes_avoided = 0;
  /// Candidate moves scored through score_candidates().
  std::int64_t candidates_scored = 0;
  /// refresh() calls (one full re-route of the workload each).
  std::int64_t cache_refreshes = 0;
  double refresh_seconds = 0.0;  ///< wall time inside refresh()
  double score_seconds = 0.0;    ///< wall time inside score_candidates()
  /// SoA kernel counters (socl.kernel.*); all-zero in legacy mode.
  KernelStats kernel;

  void merge(const RoutingCounters& other);
};

class RoutingEngine {
 public:
  /// `threads` sizes the shared pool (0 = hardware concurrency; 1 keeps
  /// every fan-out on the calling thread);
  /// `use_kernel` == false scores through the legacy ChainRouter DP instead
  /// of the SoA kernel (results are bit-identical either way).
  explicit RoutingEngine(const Scenario& scenario, int threads = 0,
                         bool use_kernel = true);

  // ---- Placement-epoch route cache ----

  /// Routes every request class under `placement`, replacing the cache and
  /// bumping the epoch; rebuilds the class index and the kernel's SoA
  /// buffers first when the scenario's workload epoch moved. Must be called
  /// before the objective_* shortcuts. Not safe to run concurrently with
  /// any other entry point (it rewrites the cache they read).
  void refresh(const Placement& placement);
  /// Epoch of the current cache; 0 means "never refreshed".
  std::uint64_t epoch() const { return epoch_; }
  /// Σ_c weight_c · D_c — the class-major total the objectives build on.
  double cached_latency_sum() const { return cached_latency_sum_; }
  /// Cached completion time of one user (served from its class entry).
  double cached_latency(int user) const {
    return cached_latency_[static_cast<std::size_t>(
        scenario_->classes().class_of(user))];
  }
  /// Cached optimal route of one user (served from its class entry).
  const std::vector<NodeId>& cached_route(int user) const {
    return cached_routes_[static_cast<std::size_t>(
        scenario_->classes().class_of(user))];
  }

  bool kernel_enabled() const { return kernel_ != nullptr; }
  /// The SoA scoring kernel, or nullptr in legacy mode.
  const ScoreKernel* kernel() const { return kernel_.get(); }

  // ---- Incremental exact objectives (cache + scratch) ----

  /// Per-worker scoring context handed to score_candidates callbacks.
  struct ScoreContext {
    RouteScratch& scratch;
    RoutingCounters& counters;
    ScoreKernel::Arena& arena;
  };

  /// Exact objective of `trial`, assuming it equals the cached placement
  /// minus the single instance (m, k): reroutes only classes whose cached
  /// route used that instance at some chain position (all positions are
  /// checked, so chains visiting m twice score correctly).
  double objective_without(MsId m, NodeId k, const Placement& trial,
                           ScoreContext& ctx) const;
  double objective_without(MsId m, NodeId k, const Placement& trial);

  /// Exact objective of `trial`, assuming it differs from the cached
  /// placement only in instances of microservice `changed`.
  double objective_with_change(const Placement& trial, MsId changed,
                               ScoreContext& ctx) const;
  double objective_with_change(const Placement& trial, MsId changed);

  /// From-scratch exact objective (no cache): routes every class.
  double full_objective(const Placement& placement, ScoreContext& ctx) const;
  double full_objective(const Placement& placement);

  /// True when some class representative misses its deadline (or is
  /// unroutable) under `placement` — the combiner's exact roll-back check,
  /// routed through the kernel so the per-move verdict shares the scoring
  /// hot path. Early-exits on the first violating class in class order.
  bool any_deadline_violation(const Placement& placement);

  // ---- Candidate fan-out ----

  /// Scores candidates [0, n) with `score(i, ctx)` and returns the scores by
  /// index. Runs on the shared pool when threads != 1 and n is large enough
  /// to amortise the dispatch; otherwise inline. The callback must be pure
  /// (read-only on shared state, writes only through ctx), which makes the
  /// parallel result bit-identical to the serial one.
  std::vector<double> score_candidates(
      std::size_t n,
      const std::function<double(std::size_t, ScoreContext&)>& score);

  /// Routes every user with scratch reuse; nullopt if any user is
  /// unroutable. Each class representative is routed once and the route is
  /// expanded to every member. Counted in the engine's counters.
  std::optional<Assignment> route_all(const Placement& placement);

  /// λ·cost + (1-λ)·w·latency — the objective combiner of Eq. (3)/(8).
  double combine(double cost, double total_latency) const;

  /// Shared worker pool (lazily created; per-worker scratch state is
  /// re-sized to the pool on every call, so it can never be undersized).
  /// Also used by the combiner's latency-loss stage so pools are not
  /// re-spawned every round.
  util::ThreadPool& pool();

  const RoutingCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }
  /// Adds `local` into counters() (thread-safe). Also how the combiner
  /// folds its dense-basin engine's work into the solve's totals.
  void merge_counters(const RoutingCounters& local);

  /// Observability sink for the engine's entry-point spans (refresh /
  /// score_candidates / route_all). Call-granular on purpose: the per-class
  /// DP inner loops stay uninstrumented, so the enabled overhead on the
  /// scoring hot path is <2% (bench_obs). nullptr disables.
  void set_sink(obs::ObsSink* sink) { sink_ = sink; }
  obs::ObsSink* sink() const { return sink_; }

  const ChainRouter& router() const { return router_; }

 private:
  /// A checkout slot backing the no-context convenience entry points: a
  /// scratch + arena leased under the mutex, with a local counter block
  /// merged back on release. Concurrent conveniences each get their own
  /// slot, so they never alias the fan-out workers' per-slot state (the
  /// aliasing bug the tsan job guards against).
  struct SerialSlot {
    RouteScratch scratch;
    ScoreKernel::Arena arena;
    bool in_use = false;
  };
  class SlotLease {
   public:
    explicit SlotLease(RoutingEngine& engine);
    ~SlotLease();
    SlotLease(const SlotLease&) = delete;
    SlotLease& operator=(const SlotLease&) = delete;
    ScoreContext context() { return {slot_->scratch, local_, slot_->arena}; }

   private:
    RoutingEngine* engine_;
    SerialSlot* slot_ = nullptr;
    RoutingCounters local_;
  };

  /// Rebuilds classes_of_ from the scenario's current request classes.
  void rebuild_class_index();
  /// Fresh bind generation for the kernel arenas; one per scoring entry so
  /// a re-used Placement address can never be mistaken for a live binding.
  std::uint64_t next_bind_gen() const {
    return bind_gen_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Completion time of class c under `placement` — kernel or legacy
  /// dispatch (the kernel arena must already be bound to `placement`).
  double class_cost(int c, const Placement& placement,
                    ScoreContext& ctx) const;
  /// Optimal route/breakdown of class c — kernel or legacy dispatch.
  bool class_route(int c, const Placement& placement, ScoreContext& ctx,
                   RouteResult& out) const;

  const Scenario* scenario_;
  ChainRouter router_;
  /// SoA scoring kernel; nullptr in legacy mode (so legacy timings carry no
  /// kernel build cost).
  std::unique_ptr<ScoreKernel> kernel_;
  int threads_;
  std::unique_ptr<util::ThreadPool> pool_;

  /// classes_of_[m]: indices of request classes whose chain contains m (each
  /// class once, even when a chain visits m repeatedly). Recomputed by
  /// refresh() whenever the scenario's workload epoch moves.
  std::vector<std::vector<int>> classes_of_;
  std::uint64_t workload_epoch_seen_ = 0;

  std::uint64_t epoch_ = 0;
  /// Per-class cached completion time / optimal route (class index keyed).
  std::vector<double> cached_latency_;
  std::vector<std::vector<NodeId>> cached_routes_;
  double cached_latency_sum_ = 0.0;

  /// Fan-out worker-slot state (sized to the pool by pool()); the serial
  /// paths lease SerialSlots instead, so the two can never alias.
  std::vector<RouteScratch> scratches_;
  std::vector<ScoreKernel::Arena> arenas_;
  std::vector<std::unique_ptr<SerialSlot>> serial_slots_;
  /// Guards serial_slots_ checkout and counters_ merges.
  std::mutex mutex_;
  mutable std::atomic<std::uint64_t> bind_gen_{1};
  RoutingCounters counters_;
  obs::ObsSink* sink_ = nullptr;
};

}  // namespace socl::core
