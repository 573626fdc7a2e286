// Observability sink: the single seam every instrumented subsystem emits
// through (DESIGN.md §4e, docs/METRICS.md).
//
// Instrumented code holds a raw `ObsSink*` that is nullptr by default. All
// emission helpers (`ScopedSpan`, `add_counter`, ...) are inline and check
// the pointer first, so the disabled path costs one predictable branch — no
// clock read, no allocation, no lock (`tests/test_obs.cpp` asserts the
// zero-allocation property; `bench_obs` measures the ~0 ns cost). With a
// real sink attached (obs::Recorder), spans land in a Chrome-trace buffer
// and metrics in the sharded registry.
//
// Instrumentation is call-granular by design: spans wrap whole solver
// phases (Algorithms 1–5), routing-engine entry points, and runtime
// windows — never per-user or per-event inner loops — which keeps the
// enabled overhead on the routing hot path under 2% (bench_obs).
#pragma once

#include <cstdint>

namespace socl::obs {

/// Span/metric phase taxonomy: one label per pipeline stage. Used as the
/// Chrome-trace category (`cat`) so Perfetto can filter per phase, and as
/// the bucket key of the automatic `socl.span.<phase>_us` histograms.
enum class Phase {
  kPartition,     ///< Algorithm 1: region-based initial partition
  kFuzzyAhp,      ///< Algorithm 5 + FuzzyAHP ρ scoring (storage planning)
  kPreprovision,  ///< Algorithm 2: instance pre-provisioning
  kCombination,   ///< Algorithms 3/4: multi-scale combination + ζ lists
  kRouting,       ///< chain-DP routing: cache refresh / scoring / route_all
  kServerless,    ///< container-runtime windows and lifecycle events
  kServe,         ///< online serving loop (one span per slot)
  kOther,         ///< top-level / uncategorised spans
};

inline constexpr int kNumPhases = 8;

constexpr const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kPartition: return "partition";
    case Phase::kFuzzyAhp: return "fuzzy_ahp";
    case Phase::kPreprovision: return "preprovision";
    case Phase::kCombination: return "combination";
    case Phase::kRouting: return "routing";
    case Phase::kServerless: return "serverless";
    case Phase::kServe: return "serve";
    case Phase::kOther: return "other";
  }
  return "other";
}

/// Abstract emission interface. Names must be string literals (or otherwise
/// outlive the sink): implementations store the pointer for spans and only
/// copy on first metric registration, keeping the steady state allocation
/// free. Metric names follow the `socl.<subsystem>.<name>` scheme
/// (docs/METRICS.md is the authoritative schema).
class ObsSink {
 public:
  virtual ~ObsSink() = default;

  /// A completed span: [start_us, start_us + dur_us), both relative to the
  /// sink's time base (`now_us`), in microseconds.
  virtual void record_span(Phase phase, const char* name, double start_us,
                           double dur_us) = 0;
  virtual void add_counter(const char* name, std::int64_t delta) = 0;
  virtual void set_gauge(const char* name, double value) = 0;
  virtual void observe(const char* name, double value) = 0;
  /// Monotonic microseconds since the sink's time base.
  virtual double now_us() const = 0;
};

/// RAII span. With a null sink the constructor performs no clock read and
/// the destructor is a single branch — the no-op the null-sink bench and
/// test pin down.
class ScopedSpan {
 public:
  ScopedSpan(ObsSink* sink, Phase phase, const char* name)
      : sink_(sink),
        phase_(phase),
        name_(name),
        start_us_(sink != nullptr ? sink->now_us() : 0.0) {}

  ~ScopedSpan() {
    if (sink_ != nullptr) {
      sink_->record_span(phase_, name_, start_us_, sink_->now_us() - start_us_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ObsSink* sink_;
  Phase phase_;
  const char* name_;
  double start_us_;
};

// Null-safe free-function emitters for one-off metric updates.
inline void add_counter(ObsSink* sink, const char* name, std::int64_t delta) {
  if (sink != nullptr) sink->add_counter(name, delta);
}

inline void set_gauge(ObsSink* sink, const char* name, double value) {
  if (sink != nullptr) sink->set_gauge(name, value);
}

inline void observe(ObsSink* sink, const char* name, double value) {
  if (sink != nullptr) sink->observe(name, value);
}

}  // namespace socl::obs
