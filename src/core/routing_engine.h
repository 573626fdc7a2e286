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
//   - the SoA scoring kernel (DESIGN.md §4h): every class is scored through
//     core/score_kernel.h — a lane-batched DP over contiguous float64
//     buffers that evaluates all first-layer conditionings at once. The
//     literal ChainRouter DP is its oracle, not a second scoring path: the
//     differential kernel lane checks the two bitwise;
//   - a placement-epoch-keyed per-class route cache: refresh() brings every
//     class's route up to date (re-routing only the classes the placement
//     diff touches) and stamps an epoch; candidate scoring then reroutes only
//     the classes whose chains contain the changed microservice, and for
//     removals only the classes whose cached route actually used the removed
//     instance. refresh() also re-derives the class index (and re-syncs the
//     kernel's SoA buffers) whenever the scenario's workload epoch moved, so
//     a mutated workload can never be scored against a stale view;
//   - per-worker kernel arenas for the fan-out, plus a mutex-guarded
//     checkout pool of arenas backing the convenience
//     entry points, so they are safe to call concurrently with a running
//     score_candidates dispatch (the tsan job covers the scenario);
//   - score_candidates(): a deterministic fan-out of independent candidate
//     scores over util::shared_pool(). Scores are written by candidate index
//     and every worker computes a pure function of the cache, so the result is
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
#include <optional>
#include <vector>

#include "core/routing.h"
#include "core/score_kernel.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::core {

/// Perf counters of the incremental scoring path. Integer counters are
/// summed across workers (order-independent), so parallel runs report the
/// same totals as serial ones.
struct RoutingCounters {
  /// Class scorings and routes requested (route / route_cost / kernel
  /// class_cost and class_route); one covers a whole request class. A
  /// kernel class-cost memo hit still counts here (see
  /// KernelStats::cost_memo_hits), so the count is thread-count-invariant.
  std::int64_t routes_computed = 0;
  /// Class latencies served straight from the epoch cache while scoring.
  std::int64_t cache_hits = 0;
  /// Cache entries skipped during removal scoring because their cached
  /// route never touched the removed instance (the cache's headline saving).
  std::int64_t reroutes_avoided = 0;
  /// Candidate moves scored through score_candidates().
  std::int64_t candidates_scored = 0;
  /// refresh() calls (each brings the whole workload's cache up to date;
  /// the classes it actually re-routed count in routes_computed).
  std::int64_t cache_refreshes = 0;
  double refresh_seconds = 0.0;  ///< wall time inside refresh()
  double score_seconds = 0.0;    ///< wall time inside score_candidates()
  /// SoA kernel counters (socl.kernel.*).
  KernelStats kernel;

  void merge(const RoutingCounters& other);
};

class RoutingEngine {
 public:
  /// `threads` caps the engine's fan-outs on util::shared_pool() in lanes,
  /// the calling thread included (0 = the whole pool, 1 = inline; wider
  /// than the pool is clamped); the lane arenas are sized to it here, once.
  /// Every class is scored through the engine's SoA kernel.
  explicit RoutingEngine(const Scenario& scenario, int threads = 0);

  // ---- Placement-epoch route cache ----

  /// Brings the cache to `placement` and bumps the epoch. Under the
  /// workload epoch of the previous refresh it re-routes only the classes
  /// whose chain contains a service with a different node set than the
  /// previously refreshed placement; otherwise (first refresh, or the
  /// workload epoch moved) it rebuilds the class index and the kernel's SoA
  /// buffers and routes every class. Either way every cached latency, route
  /// and the sum are bitwise those of a full re-route. Must be called
  /// before the objective_* shortcuts. Not safe to run concurrently with
  /// any other entry point (it rewrites the cache they read).
  void refresh(const Placement& placement);
  /// refresh()'s first step alone: re-derives the class index and the
  /// kernel's SoA view iff the workload epoch moved. Same barrier rule as
  /// refresh(); the combiner's estimate regime reads the view after it.
  void sync_workload();
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

  /// The SoA scoring kernel (its class view is synced by sync_workload()).
  const ScoreKernel& kernel() const { return kernel_; }

  // ---- Incremental exact objectives (cache + arena) ----

  /// Per-worker scoring context handed to score_candidates callbacks.
  struct ScoreContext {
    RoutingCounters& counters;
    ScoreKernel::Arena& arena;
  };

  /// Exact objective of `trial`, assuming it equals the cached placement
  /// minus the single instance (m, k): reroutes only classes whose cached
  /// route used that instance at some chain position (all positions are
  /// checked, so chains visiting m twice score correctly).
  double objective_without(MsId m, NodeId k, const Placement& trial,
                           ScoreContext& ctx) const;

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
  /// index. Fans out on util::shared_pool(), capped at lanes(), when that is
  /// above 1 and n is large enough to amortise the dispatch; otherwise
  /// inline. The callback must be pure (read-only on shared state, writes
  /// only through ctx), which makes the result bit-identical to the serial
  /// one.
  std::vector<double> score_candidates(
      std::size_t n,
      const std::function<double(std::size_t, ScoreContext&)>& score);

  /// Routes every user with scratch reuse; nullopt if any user is
  /// unroutable. Each class representative is routed once and the route is
  /// expanded to every member. Counted in the engine's counters.
  std::optional<Assignment> route_all(const Placement& placement);

  /// λ·cost + (1-λ)·w·latency — the objective combiner of Eq. (3)/(8).
  double combine(double cost, double total_latency) const;

  /// Lanes of the engine's fan-outs: its `threads` clamped to the shared
  /// pool's width.
  std::size_t lanes() const { return lanes_; }

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

 private:
  /// A checkout slot backing the no-context convenience entry points: an
  /// arena leased under the mutex, with a local counter block merged back
  /// on release. Concurrent conveniences each get their own slot, so they
  /// never alias the fan-out workers' per-slot state (the aliasing bug the
  /// tsan job guards against).
  struct SerialSlot {
    ScoreKernel::Arena arena;
    bool in_use = false;
  };
  class SlotLease {
   public:
    explicit SlotLease(RoutingEngine& engine);
    ~SlotLease();
    SlotLease(const SlotLease&) = delete;
    SlotLease& operator=(const SlotLease&) = delete;
    ScoreContext context() { return {local_, slot_->arena}; }

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

  const Scenario* scenario_;
  ScoreKernel kernel_;
  std::size_t lanes_;

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
  /// The last refreshed placement and the workload epoch it was routed
  /// under: the base of the next refresh's diff, trusted iff diff_valid_.
  std::optional<Placement> refreshed_;
  std::uint64_t refreshed_workload_epoch_ = 0;
  bool diff_valid_ = false;
  /// refresh() work list (ascending class ids) and its per-class marks.
  std::vector<int> to_route_;
  std::vector<std::uint8_t> route_mark_;

  /// Fan-out lane arenas, one per lane; the serial paths lease SerialSlots
  /// instead, so the two can never alias.
  std::vector<ScoreKernel::Arena> arenas_;
  std::vector<std::unique_ptr<SerialSlot>> serial_slots_;
  /// Guards serial_slots_ checkout and counters_ merges.
  std::mutex mutex_;
  mutable std::atomic<std::uint64_t> bind_gen_{1};
  RoutingCounters counters_;
  obs::ObsSink* sink_ = nullptr;
};

}  // namespace socl::core
