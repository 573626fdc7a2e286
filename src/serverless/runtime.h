// Deterministic discrete-event simulator of the container runtime beneath a
// placement (the serverless layer the paper targets but the evaluator
// abstracts away).
//
// Every (node, microservice) pair the placement deploys owns a container
// pool. Containers move through cold → starting → warm → expired: a demand
// miss (or a policy decision) initiates a boot that pays a configurable
// cold-start duration; a warm container serves up to `concurrency` requests
// at once; an idle container expires after the keep-alive duration, freeing
// pool capacity. Requests flow through their chain exactly as routed by the
// Assignment, paying the same transfer and processing times as the Eq. (2)
// evaluator plus the runtime effects — so a configuration with zero
// cold-start cost, ample concurrency, and no jitter reproduces the
// evaluator's completion times exactly, and everything on top is measured
// serverless overhead, decomposed per request into
// {queue, cold-start, transfer, processing}.
//
// Determinism contract: events are ordered by (time, insertion sequence),
// where arrival i of the (time-sorted) stream holds the i-th sequence number
// after the window-opening pool events;
// every stochastic draw (cold-start durations, keep-alive, processing
// jitter) comes from a counter-keyed RNG stream, pure in (seed, entity ids).
// The same seed therefore reproduces the identical event log across runs and
// thread counts (the only parallelism is the pure route-table precompute for
// the window's arriving users).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/placement.h"
#include "serverless/arrivals.h"
#include "serverless/policy.h"

namespace socl::obs {
class ObsSink;
}

namespace socl::util {
class ThreadPool;
}

namespace socl::serverless {

struct ServerlessConfig {
  /// Mean container boot time in seconds (0 disables cold-start cost).
  double cold_start_mean_s = 0.5;
  /// Log-normal sigma of boot times (0 = deterministic boots).
  double cold_start_sigma = 0.3;
  /// Idle lifetime before a warm container expires.
  double keep_alive_s = 30.0;
  /// Log-normal sigma of keep-alive durations (0 = deterministic expiry).
  double keep_alive_sigma = 0.0;
  /// Concurrent requests one warm container serves.
  int concurrency = 4;
  /// Maximum live (starting + warm) containers per pool.
  int max_containers_per_pool = 8;
  /// Log-normal jitter sigma on per-invocation processing times.
  double proc_jitter_sigma = 0.0;
  /// Autoscaling decision period (0 disables the periodic policy tick).
  double policy_tick_s = 1.0;
  /// Resolution of the emitted cold-start-rate / pool-utilisation series
  /// (0 disables the series).
  int series_bins = 0;
  /// Lanes of a serving loop's data-plane pool, the calling thread included
  /// (1 = serial, no pool; 0 = hardware concurrency), which draws each
  /// slot's arrival stream and fans out the route-table precompute of the
  /// runtime it is lent to.
  /// ServerlessRuntime itself does not read this: it fans out exactly when
  /// constructed with a pool. Results are bit-identical for any value.
  int threads = 1;
  /// Observability sink: each run() emits a `serverless.run` span, the
  /// `socl.serverless.*` lifecycle counters, and per-request latency
  /// decomposition histograms (docs/METRICS.md). nullptr disables; the
  /// simulated event stream itself is unaffected either way.
  obs::ObsSink* sink = nullptr;
};

/// Per-request end-to-end measurement; the four components always sum to
/// finish_s - arrival_s.
struct RequestOutcome {
  int user = -1;
  int seq = 0;
  double arrival_s = 0.0;
  double finish_s = 0.0;
  double queue_s = 0.0;     ///< waited on busy warm containers
  double cold_s = 0.0;      ///< waited on container boots
  double transfer_s = 0.0;  ///< d_in + inter-stage links + d_out (Eq. 2)
  double proc_s = 0.0;      ///< per-stage service incl. jitter
  double total_s() const { return finish_s - arrival_s; }
};

/// Window-level accounting. Every served invocation is classified into
/// exactly one of {warm hit, cold serve, queued serve}, so
/// invocations == warm_hits + cold_serves + queue_serves always holds.
struct RuntimeTotals {
  std::int64_t invocations = 0;
  std::int64_t warm_hits = 0;     ///< served on arrival, zero wait
  std::int64_t cold_serves = 0;   ///< waited on a container boot
  std::int64_t queue_serves = 0;  ///< waited only on busy containers
  std::int64_t demand_boots = 0;  ///< boots triggered by a demand miss
  /// Boots initiated by the policy: window-open rollout of non-carried
  /// instances plus periodic warm-floor restoration.
  std::int64_t prewarm_boots = 0;
  std::int64_t expirations = 0;
  /// Containers warm for free when the window opened (steady-state pools or
  /// instances carried over from the previous slot).
  int initial_warm = 0;
  int peak_live = 0;  ///< max live containers across all pools at once
};

/// One processed simulator event (the determinism tests compare full logs).
struct EventRecord {
  double time_s = 0.0;
  int kind = 0;  ///< EventKind as int
  int a = -1;
  int b = -1;
  int c = -1;
  bool operator==(const EventRecord&) const = default;
};

struct RuntimeMetrics {
  /// Completion-ordered per-request outcomes.
  std::vector<RequestOutcome> requests;
  RuntimeTotals totals;
  /// Per-bin cold-serve fraction of invocations (series_bins > 0).
  std::vector<double> cold_rate;
  /// Per-bin busy-slot share of live capacity (series_bins > 0).
  std::vector<double> pool_utilisation;
  double series_bin_s = 0.0;

  double mean_latency_s() const;
  double mean_cold_s() const;
};

class ServerlessRuntime {
 public:
  /// `pool`, when non-null, is borrowed (it must outlive the runtime and
  /// must not be the pool run() is called from): run() fans the pure
  /// route-table precompute, which covers only the window's arriving users,
  /// out on it (a window with fewer than two arriving users runs serially).
  /// Without a pool run() is serial.
  ServerlessRuntime(const core::Scenario& scenario, ServerlessConfig config,
                    util::ThreadPool* pool = nullptr);

  /// Simulates `arrivals` dispatched through `assignment` on the pools of
  /// `placement` under `policy`. `arrivals` must be sorted by non-decreasing
  /// `time_s` (generate_arrivals and split_arrivals streams are): the event
  /// loop merges the stream with its event heap, and the last arrival ends
  /// the policy-tick horizon.
  ///
  /// `carried` marks instances surviving from the previous slot (slot
  /// simulator / online controller integration): carried instances open the
  /// window with a free warm container, while instances absent from
  /// `carried` must boot — churned deployments pay real cold starts. Pass
  /// nullptr for a steady-state window (every pool opens warm per policy).
  ///
  /// Throws std::invalid_argument when any user's assignment — arriving in
  /// this window or not — uses an instance `placement` does not deploy,
  /// when an arrival names a user the scenario does not have, or when the
  /// stream is not sorted by time (a NaN time never is).
  ///
  /// `event_log`, when non-null, receives every processed event in order.
  RuntimeMetrics run(const core::Placement& placement,
                     const core::Assignment& assignment,
                     std::span<const Arrival> arrivals,
                     const ScalingPolicy& policy, std::uint64_t seed,
                     const core::Placement* carried = nullptr,
                     std::vector<EventRecord>* event_log = nullptr) const;

  const ServerlessConfig& config() const { return config_; }

 private:
  const core::Scenario* scenario_;
  ServerlessConfig config_;
  util::ThreadPool* pool_;  ///< borrowed; null = serial route tables
};

}  // namespace socl::serverless
