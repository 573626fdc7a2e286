// Online serving loop: the one online control loop, fusing the solver, the
// request-class machinery and the serverless runtime into a "day in the
// life" at production scale (DESIGN.md §4i, §4k). step() runs fixed stages:
//
//   chaos ingest → workload advance (mobility, drift, cross-metro re-homing)
//   → class diff → rung choice → replan → economics → cross-check
//   → DES windows → roll forward → recording
//
// The class diff compares every class's demand tuple with the previous
// slot's (fingerprint-bucketed, exact-equality verified; no routes kept).
// The rung then picks the placement: carried (no tuple moved; an unchanged
// workload epoch skips routing), incremental (moved weight under the
// threshold; lost coverage falls through), or replan (slot one, the periodic
// floor, a substrate change or a drift breach: the shard coordinator's warm
// rungs, one per metro or one aliasing the scenario). Every rung routes
// each class once through the loop's SoA scoring kernel — cheap next to
// ingesting the workload (DESIGN.md §4i has the figures), and a pure
// function of tuple and placement, so an unmoved class under a carried
// placement gets its old route back bit for bit. The DES windows (one per
// metro when sharded) pay real cold starts for churned instances unless the
// previous slot's Alg. 2 quota snapshot pre-warmed them.
//
// Determinism: every SlotReport field except the wall-clock control_s is a
// pure function of (config, seed), across runs and thread counts. The
// cross-check lane re-routes every class through the reference chain DP
// (core::ChainRouter, the kernel's oracle), requires routes and the latency
// total to match bit for bit, and runs the constraint validator
// (DESIGN.md §4f).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/online.h"
#include "core/routing.h"
#include "core/score_kernel.h"
#include "net/multi_metro.h"
#include "serve/chaos.h"
#include "serverless/runtime.h"
#include "shard/sharded_solver.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/mobility.h"
#include "workload/request_classes.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::serve {

/// How the slot's placement decision was produced.
enum class SlotMode {
  kCarried,      ///< no demand tuple moved: placement carried
  kIncremental,  ///< some tuples moved (below the threshold): placement carried
  kReplan,       ///< new placement from the shard coordinator's step
};

const char* slot_mode_name(SlotMode mode);

struct ServingConfig {
  /// Substrate + template workload. `scenario.num_users` is the template
  /// count; the served population is `population` replicated users.
  core::ScenarioConfig scenario;
  /// Multi-metro mode: when > 0 the substrate is a stitched multi-metro
  /// topology (net::make_multi_metro) instead of `scenario.topology` —
  /// `metros` metros of `scenario.num_nodes` nodes each, generated from
  /// `scenario.topology` per metro, stitched per `multi_metro.backhaul`.
  /// Catalog, request generation, and constants still come from `scenario`.
  int metros = 0;
  /// Spacing/backhaul parameters of the stitched substrate (its `metros`
  /// and `metro` fields are overridden as described above).
  net::MultiMetroConfig multi_metro;
  /// Per-user per-slot probability of re-homing to a different metro
  /// (weighted hotspot attachment inside the target metro) — the churn
  /// process that moves users *between shards* through the dense per-shard
  /// user remap. Requires metros > 1.
  double cross_metro_prob = 0.0;
  /// Picks the replan coordinator's plan: one shard per metro (warm rungs at
  /// the frozen budget price, re-price only on budget drift, per-metro DES
  /// windows) instead of one shard aliasing the scenario. Requires metros
  /// >= 1; with one metro the day is byte-identical to the unsharded loop.
  bool sharded = false;
  /// Replan coordinator knobs. Its `solver`, `online` and `sink` fields are
  /// overridden from this config's `online.socl`, `online` and `sink`
  /// (single source of truth).
  shard::ShardedParams shard;
  /// Aggregated users actually served (replicate_requests over the template
  /// workload; 0 keeps the template count). Request-class aggregation keeps
  /// the control plane O(templates × nodes) however large this is.
  int population = 0;
  int slots = 24;
  /// Slots per simulated hour (feeds the diurnal intensity series).
  int slots_per_hour = 1;
  /// DES window simulated per slot, in seconds.
  double slot_horizon_s = 60.0;
  workload::MobilityConfig mobility;
  /// Per-user per-slot probability of workload drift: the user swaps to a
  /// different request template (chain, data volumes, deadline), keeping its
  /// id and attach node. Bounded template pool ⇒ bounded class count.
  double drift_prob = 0.0;
  /// Warm-start controller parameters of the coordinator's per-shard rungs.
  core::OnlineParams online;
  /// Replan when the moved-class weight fraction exceeds this; below it the
  /// placement is carried.
  double replan_weight_threshold = 0.05;
  /// Force a replan every N slots (0 = only on drift / coverage loss).
  int full_replan_period = 8;
  /// The DES windows' runtime. `runtime.threads` sizes the loop's one
  /// data-plane pool in lanes, the loop's thread included, which draws
  /// each slot's arrival stream and fans out the DES route tables (1 =
  /// serial, no pool).
  serverless::ServerlessConfig runtime;
  /// Arrival process template: `mean_rate` is the per-user base rate, scaled
  /// per slot by the diurnal + bursty day profile; `horizon_s` is overridden
  /// by `slot_horizon_s`.
  serverless::ArrivalConfig arrivals;
  /// Scales the day profile's deviation from flat (0 = homogeneous slots).
  double diurnal_amplitude = 1.0;
  /// Cross-check lane: every slot, re-route each class through the SoA
  /// scoring kernel, require every user's route (and the latency total) to
  /// equal the live pass bit for bit, and run the independent constraint
  /// validator. Results land in
  /// SlotReport::{full_reroute_matches, validator_violations}.
  bool cross_check = false;
  /// Chaos lane (DESIGN.md §4l): seed-keyed failure/repair/flash-crowd
  /// schedule injected into the day. Disabled by default; with
  /// `chaos.enabled == false` the day — including its CSV — is byte-for-byte
  /// the healthy day. `chaos.first_slot` is clamped to >= 2 so slot 1 always
  /// builds the baseline plan on the full substrate.
  ChaosConfig chaos;
  std::uint64_t seed = 1;
  /// `socl.serve.*` metrics per slot (docs/METRICS.md); forwarded to the
  /// DES windows when `runtime.sink` is null. nullptr disables.
  obs::ObsSink* sink = nullptr;
  /// Test hook: mutate the slot's requests after mobility/drift and before
  /// the scenario ingests them (e.g. move exactly one user). Runs from slot
  /// 2 onwards. Empty = disabled.
  std::function<void(int slot, std::vector<workload::UserRequest>&)>
      workload_hook;
};

/// One slot of the serving loop. Every field except `control_s` is
/// deterministic in (config, seed).
struct SlotReport {
  int slot = 0;  ///< 1-based
  SlotMode mode = SlotMode::kReplan;
  int classes = 0;
  /// Classes whose demand tuple moved since the previous slot (== `classes`
  /// on replan slots); the rest are `classes_carried`.
  int classes_recomputed = 0;
  int classes_carried = 0;
  /// Σ weight of moved classes / total weight (the replan trigger input).
  double moved_weight_fraction = 0.0;
  double objective = 0.0;
  double deployment_cost = 0.0;
  double mean_latency_s = 0.0;  ///< weighted Eq. 2 mean over classes
  /// Instances added + removed vs the previous slot's placement.
  int placement_churn = 0;
  /// Σ κ(m) over instances *added* this slot (the rollout cost churn pays).
  double churn_cost = 0.0;
  /// Added instances that opened warm because the previous slot's quota
  /// snapshot predicted them (the pre-warm lookahead's hits).
  int prewarm_ahead_hits = 0;
  /// Per-stage container invocations (chain length × requests, roughly).
  std::int64_t invocations = 0;
  /// End-to-end requests that completed inside the DES window.
  std::int64_t requests_completed = 0;
  std::int64_t slo_met = 0;      ///< completed requests with total <= D_h^max
  std::int64_t cold_serves = 0;  ///< invocations that waited on a boot
  double slo_attainment = 1.0;   ///< slo_met / requests (1.0 when idle)
  double cold_start_rate = 0.0;  ///< cold_serves / invocations
  /// Diurnal + burst intensity multiplier applied to the arrival rate.
  double arrival_intensity = 1.0;
  /// FNV-1a over the slot's demand (decision-independent trace identity).
  std::uint64_t demand_fingerprint = 0;
  /// Cross-check lane results; -1 / true when the lane is disabled.
  int validator_violations = -1;
  bool full_reroute_matches = true;
  /// Sharded-mode bookkeeping (0 / false outside sharded replans). Excluded
  /// from the CSV so sharded and unsharded series stay column-comparable.
  int shards_resolved = 0;
  bool repriced = false;
  /// Chaos-lane state of the slot (all neutral when chaos is disabled;
  /// the CSV grows these columns only when chaos is enabled, keeping the
  /// healthy day's CSV byte-identical to the pre-chaos one).
  int failed_nodes = 0;       ///< nodes down during the slot (cumulative)
  int failed_links = 0;       ///< explicitly failed links during the slot
  int users_rehomed = 0;      ///< users moved off dead/isolated stations
  double flash_multiplier = 1.0;
  bool substrate_changed = false;  ///< failures/repairs landed this slot
  /// Wall-clock control-plane latency: chaos ingest, workload advance, class
  /// diff, rung choice, replan and economics — everything up to a ready
  /// placement and assignment. Excludes the cross-check, the DES windows and
  /// the roll-forward. The one non-deterministic field; not in the CSV.
  double control_s = 0.0;
};

/// Whole-day accounting plus the CSV/summary exports.
struct ServingReport {
  std::vector<SlotReport> slots;

  std::int64_t invocations = 0;
  std::int64_t requests_completed = 0;
  std::int64_t slo_met = 0;
  std::int64_t cold_serves = 0;
  std::int64_t classes_total = 0;
  std::int64_t classes_recomputed = 0;
  int carried_slots = 0;
  int incremental_slots = 0;
  int replans = 0;
  int churn_instances = 0;
  double churn_cost = 0.0;
  int prewarm_ahead_hits = 0;
  /// Sharded-mode totals (0 when unsharded).
  int shards_resolved = 0;
  int reprices = 0;
  double control_s_total = 0.0;
  /// Chaos-lane day totals (all zero with chaos disabled). `chaos` gates
  /// the extra CSV columns.
  bool chaos = false;
  int chaos_node_failures = 0;
  int chaos_link_failures = 0;
  int chaos_repairs = 0;
  int chaos_users_rehomed = 0;
  int chaos_degraded_slots = 0;
  int chaos_flash_slots = 0;
  /// SLO accounting restricted to degraded slots — the availability story:
  /// how much service quality survives while failures are outstanding.
  std::int64_t degraded_requests = 0;
  std::int64_t degraded_slo_met = 0;

  double slo_attainment() const;
  double cold_start_rate() const;
  /// SLO attainment over degraded slots only (1.0 when the day never
  /// degraded — vacuous availability).
  double degraded_slo_attainment() const;
  /// Σ recomputed / Σ classes — how much of the day's routing work the
  /// incremental path actually performed (1.0 = every slot replanned).
  double recompute_fraction() const;

  /// Appends `slot` and folds it into the day totals; `chaos_slot` (null
  /// with chaos disabled) feeds the chaos totals.
  void add(const SlotReport& slot, const SlotChaos* chaos_slot);

  /// Per-slot CSV series (deterministic columns only — no wall-clock).
  std::string to_csv() const;
  void write_csv(const std::string& path) const;
  std::string summary() const;
};

/// The controller. Owns its scenario; step() advances one slot, run()
/// finishes the configured day.
class ServingLoop {
 public:
  explicit ServingLoop(ServingConfig config);

  /// Advances one slot: workload → placement decision → DES window.
  /// Throws std::runtime_error if the slot is unroutable even after a
  /// replan, and std::logic_error when the cross-check lane finds the
  /// assignment diverging from the reference (ChainRouter) class routes.
  SlotReport step();

  /// Runs the remaining slots up to config().slots.
  ServingReport run();

  int slot() const { return slot_; }
  const ServingConfig& config() const { return config_; }
  const core::Scenario& scenario() const { return scenario_; }
  const core::Placement& placement() const { return placement_; }
  /// Every user's route under placement() (valid after the first step()).
  const core::Assignment& assignment() const { return assignment_; }
  /// metro_of[node]; empty in single-substrate (metros == 0) mode.
  const std::vector<int>& metro_of() const { return metro_of_; }

 private:
  /// What one slot's stages hand each other besides the SlotReport.
  struct SlotPlan {
    const SlotChaos* chaos = nullptr;  ///< null when chaos is disabled
    bool workload_changed = false;
    double total_weight = 1.0;  ///< Σ class weight, at least 1
    int moved = 0;              ///< classes whose tuple is new this slot
    bool weight_breach = false;  ///< moved weight over the threshold
    bool periodic_replan = false;
    bool replan = false;
    core::PlacementDelta delta;  ///< vs the previous slot's placement
  };

  // step()'s stages, in order (the header comment names each).
  void ingest_chaos(SlotReport& report, SlotPlan& plan);
  /// Returns the number of users re-homed off dead/isolated stations
  /// (always 0 outside degraded chaos slots).
  int advance_workload();
  void diff_classes(SlotReport& report, SlotPlan& plan);
  void choose_rung(SlotReport& report, SlotPlan& plan);
  void replan(SlotReport& report, bool periodic);
  void settle_economics(SlotReport& report, SlotPlan& plan);
  void cross_check(SlotReport& report) const;
  void serve_windows(SlotReport& report, const SlotPlan& plan,
                     const serverless::SoCLPrewarmPolicy& policy);
  void roll_forward(const serverless::SoCLPrewarmPolicy& policy);
  void emit_metrics(const SlotReport& report, const SlotChaos* chaos_slot);

  /// The carried placement the DES opens warm: the previous slot's, plus
  /// added instances the pre-warm snapshot predicted, minus failed nodes.
  core::Placement warm_pools(SlotReport& report, const SlotPlan& plan) const;
  /// (Re)creates the replan coordinator against the current scenario — at
  /// construction, and on every substrate change of a sharded day.
  void rebuild_sharded();
  /// Routes every class once under placement_ and expands each route to
  /// the class members in assignment_; sets latency_total_. Returns false
  /// when some class is unroutable (assignment_ is then incomplete).
  bool route_classes();
  double slot_intensity(int slot) const;

  ServingConfig config_;
  /// metro_of[node] of the stitched substrate; filled before scenario_ in
  /// the init list (declaration order matters) and empty when metros == 0.
  std::vector<int> metro_of_;
  core::Scenario scenario_;
  std::vector<workload::UserRequest> templates_;
  /// The workload the last set_requests() replaced: advance_workload
  /// copy-assigns the next population into it to reuse its buffers. Holds
  /// one extra population between slots (the peak-RSS cost of recycling).
  std::vector<workload::UserRequest> spare_requests_;
  std::vector<double> weights_;      ///< hotspot attachment weights
  std::vector<double> day_profile_;  ///< per-slot intensity multipliers
  /// Per-metro node lists and hotspot weights (cross-metro re-homing picks
  /// a weighted attach node inside the target metro). Empty when metros <= 1.
  std::vector<std::vector<net::NodeId>> metro_nodes_;
  std::vector<std::vector<double>> metro_weights_;
  util::Rng mobility_rng_;
  util::Rng drift_rng_;
  util::Rng cross_metro_rng_;
  /// The replan engine. Sharded, it is recreated on every substrate change:
  /// its first step re-prices (repriced = true).
  std::unique_ptr<shard::ShardedSoCL> sharded_;

  /// Chaos lane (both null when chaos is disabled). `healthy_network_` is
  /// the pristine substrate: full repair restores it by copy rather than
  /// via apply_failures(empty plan), which would drop base_bandwidth /
  /// channel_gain of the links.
  std::unique_ptr<net::EdgeNetwork> healthy_network_;
  std::unique_ptr<ChaosSchedule> chaos_;
  std::uint64_t last_substrate_epoch_ = 0;

  int slot_ = 0;
  /// Epoch of the workload the assignment was built for; a slot whose
  /// set_requests() no-ops (same tuples) keeps it and skips routing.
  std::uint64_t last_epoch_ = 0;
  core::Placement placement_;
  core::Placement previous_placement_;
  /// The live routing pass's kernel, built by the first route_classes, and
  /// its arena. No delay tables: one route per class never pays them.
  std::optional<core::ScoreKernel> route_kernel_;
  core::ScoreKernel::Arena route_arena_;
  bool have_previous_ = false;
  core::Assignment assignment_;
  /// Σ_c weight_c · D_c of assignment_ (the slot economics' latency term).
  double latency_total_ = 0.0;
  /// Demand tuple of every class of the last routed workload — the next
  /// slot's diff (fingerprint-bucketed, exact-equality verified).
  struct TupleHash {
    std::size_t operator()(const workload::UserRequest& r) const {
      return workload::request_fingerprint(r);
    }
  };
  struct TupleEqual {
    bool operator()(const workload::UserRequest& a,
                    const workload::UserRequest& b) const {
      return workload::same_request_class(a, b);
    }
  };
  std::unordered_set<workload::UserRequest, TupleHash, TupleEqual> tuples_;
  /// Alg. 2 quota snapshot from the previous slot (ms × nodes), the
  /// pre-warm lookahead's prediction of where demand concentrates next.
  std::vector<std::uint8_t> prewarm_snapshot_;
  /// The data plane's pool (arrival streams, DES route tables), sized in
  /// lanes by config.runtime.threads; built by the first serve_windows,
  /// never when threads == 1.
  std::unique_ptr<util::ThreadPool> data_pool_;

  ServingReport report_;
};

}  // namespace socl::serve
