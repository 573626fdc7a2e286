// Data-oriented scoring engine for the solver inner loop (DESIGN.md §4h).
//
// ChainRouter scores one request by conditioning the layered-graph DP on
// every first-layer node and re-running the whole chain DP per conditioning
// (d_in and d_out of Eq. 2 both reference the first-layer choice v_s). That
// recomputes every transfer-time division once per conditioning and chases
// vectors-of-vectors per call. ScoreKernel replaces it with a batched,
// allocation-free kernel over flat float64 lanes:
//
//   * all first-layer conditionings of a class are scored TOGETHER. The DP
//     state is a candidate-major matrix dp[candidate * S + lane] whose
//     contiguous lane dimension holds one double per conditioning, so each
//     transfer time and compute time is computed once per (prev, cur)
//     candidate pair and folded into all S lanes with straight-line add/min
//     code the compiler auto-vectorises — no virtual calls, no per-call
//     allocation, |L0|× fewer divisions than the legacy loop;
//   * everything Eq. (2) reads is staged in structure-of-arrays buffers:
//     flat per-class demand tuples (workload::ClassDemandSoA), a
//     microservice × node compute-time matrix, and per-class link-delay
//     tables (d_in rows, d_out and per-edge transfer matrices). The tables
//     are rebuilt when the scenario's workload epoch moves and are bounded
//     by a byte budget; past the budget the kernel divides on the fly, which
//     produces the same bits (same operands, same operation);
//   * per-shard Arena scratch owns the lane matrices plus a per-placement
//     memo of candidate-node lists, so scoring many classes against one
//     trial placement fills each microservice's layer once instead of once
//     per class. An Arena must not be shared between concurrent calls; the
//     routing engine keeps one per worker slot plus a checked-out pool for
//     its convenience entry points.
//
// Bit-identity contract: every lane evaluates the same floating-point
// expressions in the same order as ChainRouter::route / route_cost — init
// `compute`, transition `(dp + transfer) + compute` with strict-< min
// updates in the same candidate order, terminal `(d_in + dp) + d_out`
// scanned lane-outer/candidate-inner. Costs, routes, and breakdowns are
// therefore bit-identical to the legacy path, which the differential kernel
// lane (tests/test_differential) and `bench_scale --check` enforce.
#pragma once

#include <cstdint>
#include <vector>

#include "core/routing.h"
#include "workload/request_classes.h"

namespace socl::core {

/// Counters of the SoA kernel, folded into RoutingCounters (flushed as the
/// socl.kernel.* metrics). Plain sums: order-independent across workers.
struct KernelStats {
  std::int64_t costs = 0;       ///< batched class scorings (one per DP batch)
  std::int64_t lanes = 0;       ///< first-layer conditionings folded into lanes
  std::int64_t memo_hits = 0;   ///< candidate-list lookups served by the memo
  std::int64_t memo_misses = 0; ///< candidate-list lookups that hit Placement
  std::int64_t rebuilds = 0;    ///< SoA rebuilds (workload epoch moves)

  void merge(const KernelStats& other) {
    costs += other.costs;
    lanes += other.lanes;
    memo_hits += other.memo_hits;
    memo_misses += other.memo_misses;
    rebuilds += other.rebuilds;
  }
};

class ScoreKernel {
 public:
  /// Per-shard scratch: lane matrices, reconstruction buffers, and the
  /// per-placement candidate-list memo. Grows to the largest class seen and
  /// never shrinks, so a long-lived arena makes steady-state scoring
  /// allocation-free (test_score_kernel pins this with an operator-new
  /// override). Not shareable between concurrent calls.
  struct Arena {
    // Placement binding. Entries of the memo are valid iff their stamp
    // equals the arena's; bind() bumps the stamp, invalidating everything
    // in O(1) without touching the per-microservice vectors.
    const Placement* bound = nullptr;
    std::uint64_t bound_gen = 0;
    std::uint64_t stamp = 0;
    std::vector<std::vector<NodeId>> ms_nodes;
    std::vector<std::uint64_t> ms_stamp;

    // Lane-batched DP state (candidate-major, lane-contiguous).
    std::vector<double> dp;
    std::vector<double> next;
    std::vector<const std::vector<NodeId>*> layers;

    // Single-conditioning reconstruction (legacy-identical back-pointers).
    std::vector<double> dp1;
    std::vector<double> next1;
    std::vector<std::int32_t> back;
    std::vector<NodeId> route;
  };

  /// Default byte budget for the precomputed link-delay tables (d_in rows,
  /// d_out and per-edge V×V matrices). The paper-scale sweep (5k classes,
  /// 12 nodes, chains ≤ ~7) sits near 30 MB; workloads past the budget fall
  /// back to on-the-fly divisions with identical results.
  static constexpr std::size_t kDefaultDelayTableBudget = 128u << 20;

  explicit ScoreKernel(const Scenario& scenario,
                       std::size_t delay_table_budget_bytes =
                           kDefaultDelayTableBudget);

  /// Rebuilds the SoA buffers iff the scenario's workload epoch moved since
  /// the last build. Returns true when a rebuild happened. Not safe to call
  /// concurrently with scoring — the routing engine calls it from refresh(),
  /// which is already the engine's workload-mutation barrier.
  bool sync();

  /// Binds `arena` to `placement`, invalidating its candidate-list memo.
  /// The gen overload is idempotent per (placement, gen) pair so a sharded
  /// refresh can bind once per worker and no-op on subsequent items; the
  /// two-argument form always invalidates.
  void bind(Arena& arena, const Placement& placement) const;
  void bind(Arena& arena, const Placement& placement,
            std::uint64_t gen) const;

  /// Optimal completion time of class c under the placement bound to
  /// `arena` — bit-identical to ChainRouter::route_cost on the class
  /// representative (the DP-accumulated total, +inf when unroutable).
  double class_cost(int c, Arena& arena, KernelStats& stats) const;

  /// Optimal route and breakdown of class c — bit-identical to
  /// ChainRouter::route on the representative (same nodes, same breakdown
  /// terms). Returns false when the class is unroutable (`out` unspecified).
  bool class_route(int c, Arena& arena, KernelStats& stats,
                   RouteResult& out) const;

  std::uint64_t workload_epoch_seen() const { return epoch_seen_; }
  bool delay_tables_enabled() const { return use_tables_; }
  /// Heap footprint of the SoA view plus the delay tables.
  std::size_t soa_bytes() const;
  const workload::ClassDemandSoA& soa() const { return soa_; }

 private:
  struct BatchBest {
    double total;
    std::size_t s;  ///< winning first-layer conditioning (lane index)
    std::size_t c;  ///< winning terminal candidate index
  };

  void rebuild();
  /// Fills arena.layers for class c from the memo; false when some chain
  /// microservice has no instance (mirrors fill_layers' first-empty-layer
  /// early exit). `max_pair` receives the largest adjacent layer-width
  /// product (1 for single-service chains) — the number of times each
  /// per-edge delay stripe would be read, which drives the table policy.
  bool gather_layers(int c, std::size_t len, Arena& arena, KernelStats& stats,
                     std::size_t& max_pair) const;
  template <bool kTables>
  BatchBest batch_dp(int c, std::size_t len, Arena& arena,
                     KernelStats& stats) const;
  template <bool kTables>
  void rebuild_route(int c, std::size_t len, const BatchBest& best,
                     Arena& arena, RouteResult& out) const;
  /// All-singleton-layer fast path: one scalar chain walk in the batch DP's
  /// exact expression order (the one-lane/one-candidate DP degenerates to
  /// it), so the returned total is bit-identical, including the +inf
  /// unroutable cases. This is the dominant regime late in combination,
  /// when most microservices are down to a single instance.
  template <bool kTables>
  double singleton_total(int c, std::size_t len, Arena& arena) const;
  /// One-conditioning fast path (single first-layer candidate, wider layers
  /// further down the chain): the batch DP with lanes == 1 degenerates to a
  /// plain layered scan, so this walks it without the lane dimension —
  /// identical expressions, candidate order, and strict-< updates, hence
  /// bit-identical totals.
  template <bool kTables>
  double single_lane_total(int c, std::size_t len, Arena& arena) const;
  /// Recomputes the RouteResult breakdown terms from arena.route, exactly
  /// as ChainRouter::route does from its chosen nodes.
  template <bool kTables>
  void fill_breakdown(int c, std::size_t len, Arena& arena,
                      RouteResult& out) const;

  const Scenario* scenario_;
  std::size_t num_nodes_;
  std::size_t delay_table_budget_;
  std::uint64_t epoch_seen_ = 0;

  workload::ClassDemandSoA soa_;
  /// compute_[m * V + k] = compute_gflop(m) / compute_gflops(k) — the exact
  /// division both DP paths perform, precomputed per rebuild (a substrate
  /// swap moves the workload epoch and may change compute_gflops).
  std::vector<double> compute_;

  bool use_tables_ = false;
  std::vector<double> din_;        ///< [c * V + v]: d_in of class c via v
  std::vector<double> dout_;       ///< [c * V² + v_d * V + v_s]
  std::vector<double> edge_delay_; ///< [(edge_offset[c]+e) * V² + p * V + k]
};

}  // namespace socl::core
