// Lock-cheap metrics registry: counters, gauges, and fixed-log-bucket
// histograms behind `socl.<subsystem>.<name>` keys (docs/METRICS.md).
//
// Writes land in one of a fixed set of shards picked per thread, each
// guarded by its own mutex — uncontended in the steady state, so a metric
// update costs one uncontended lock plus a map lookup (and allocates only
// on a name's first registration in a shard). `snapshot()` merges the
// shards into a deterministic, name-sorted view: integer counters and
// histogram bucket counts are exact sums (order-independent), gauges are
// last-write-wins by a global sequence number, so the merged result is
// identical for any thread count (`tests/test_obs.cpp` enforces this).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace socl::util {
class Table;
}

namespace socl::obs {

// ---- Fixed log-bucket histogram layout ----
//
// Finite samples fall into kHistogramBuckets + 2 buckets:
//   bucket 0                      underflow: v < kHistogramLowest
//   bucket j (1..kBuckets)        kLowest·2^(j-1) <= v < kLowest·2^j
//   bucket kBuckets + 1           overflow:  v >= kLowest·2^kBuckets
// With kLowest = 1e-6 (one microsecond when observing seconds) the 48
// doubling buckets span 1 µs .. ~3.2 days, enough for every latency and
// stage duration the pipeline emits. Non-finite samples are counted apart
// and never pollute sum/min/max.

inline constexpr int kHistogramBuckets = 48;
inline constexpr double kHistogramLowest = 1e-6;

/// Bucket index of a finite value (see layout above); -1 for NaN/±inf.
int histogram_bucket(double value);
/// Inclusive lower bound of bucket j (0 maps to -inf, the underflow).
double histogram_bucket_lower(int bucket);

struct HistogramData {
  std::array<std::uint64_t, kHistogramBuckets + 2> buckets{};
  std::int64_t count = 0;       ///< finite samples
  std::int64_t non_finite = 0;  ///< NaN / ±inf samples (counted apart)
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void observe(double value);
  void merge(const HistogramData& other);
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

enum class MetricKind { kCounter, kGauge, kHistogram };

constexpr const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

/// One merged metric in a snapshot.
struct SnapshotEntry {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::int64_t counter = 0;   ///< counter kind only
  double gauge = 0.0;         ///< gauge kind only
  HistogramData histogram;    ///< histogram kind only
};

/// Deterministic (name-sorted) merged view of a registry.
struct MetricsSnapshot {
  std::vector<SnapshotEntry> entries;

  const SnapshotEntry* find(std::string_view name) const;

  /// Tabular form matching the docs/METRICS.md export schema:
  /// metric,kind,count,value,sum,min,max,mean (empty cells where a column
  /// does not apply to the kind).
  util::Table to_table() const;
  void write_csv(const std::string& path) const;

  /// Full-fidelity JSON: histograms include their bucket arrays
  /// ({"le": upper_bound, "count": n}, cumulative "le" semantics like
  /// Prometheus).
  std::string to_json() const;
  void write_json(const std::string& path) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// A name must be used with a single kind; mixing kinds under one name is
  /// a programming error (the first kind registered in a shard wins there).
  void counter_add(std::string_view name, std::int64_t delta);
  void gauge_set(std::string_view name, double value);
  void observe(std::string_view name, double value);

  /// Merged, name-sorted view; safe to call concurrently with writers
  /// (each shard is locked briefly while copied).
  MetricsSnapshot snapshot() const;

 private:
  struct Metric {
    MetricKind kind = MetricKind::kCounter;
    std::int64_t counter = 0;
    double gauge = 0.0;
    std::uint64_t gauge_seq = 0;  ///< last-write-wins merge order
    std::unique_ptr<HistogramData> histogram;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Metric, std::less<>> metrics;
  };

  static constexpr std::size_t kShards = 16;

  Shard& shard_for_thread();
  Metric& slot(Shard& shard, std::string_view name, MetricKind kind);

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> gauge_seq_{0};
};

}  // namespace socl::obs
