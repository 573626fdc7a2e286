#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/table.h"

namespace socl::obs {
namespace {

/// Shard index of the calling thread: threads are handed dense ids on first
/// use and folded onto the fixed shard array. Two threads may share a shard
/// (the mutex keeps that correct); a thread never migrates, so its writes
/// always serialise with themselves.
std::size_t thread_shard_index(std::size_t num_shards) {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t dense =
      next.fetch_add(1, std::memory_order_relaxed);
  return dense % num_shards;
}

/// Shortest round-trip-exact formatting for the JSON export.
std::string format_double(double value) {
  if (!std::isfinite(value)) {
    // JSON has no inf/nan literals; the schema maps them to null.
    return "null";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  double parsed = 0.0;
  std::sscanf(buffer, "%lf", &parsed);
  if (parsed == value) {
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[32];
      std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
      std::sscanf(shorter, "%lf", &parsed);
      if (parsed == value) return shorter;
    }
  }
  return buffer;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

int histogram_bucket(double value) {
  if (!std::isfinite(value)) return -1;
  if (value < kHistogramLowest) return 0;
  // kLowest·2^(j-1) <= v < kLowest·2^j  =>  j-1 = floor(log2(v / kLowest)).
  // The quotient of a boundary by kLowest is an exact power of two, so
  // ilogb classifies boundaries exactly.
  const int exponent = std::ilogb(value / kHistogramLowest);
  const int bucket = exponent + 1;
  return std::min(bucket, kHistogramBuckets + 1);
}

double histogram_bucket_lower(int bucket) {
  if (bucket <= 0) return -std::numeric_limits<double>::infinity();
  return std::ldexp(kHistogramLowest,
                    std::min(bucket, kHistogramBuckets + 1) - 1);
}

void HistogramData::observe(double value) {
  const int bucket = histogram_bucket(value);
  if (bucket < 0) {
    ++non_finite;
    return;
  }
  ++buckets[static_cast<std::size_t>(bucket)];
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
}

void HistogramData::merge(const HistogramData& other) {
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  count += other.count;
  non_finite += other.non_finite;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::shard_for_thread() {
  return shards_[thread_shard_index(kShards)];
}

MetricsRegistry::Metric& MetricsRegistry::slot(Shard& shard,
                                               std::string_view name,
                                               MetricKind kind) {
  const auto it = shard.metrics.find(name);
  if (it != shard.metrics.end()) return it->second;
  Metric metric;
  metric.kind = kind;
  if (kind == MetricKind::kHistogram) {
    metric.histogram = std::make_unique<HistogramData>();
  }
  return shard.metrics.emplace(std::string(name), std::move(metric))
      .first->second;
}

void MetricsRegistry::counter_add(std::string_view name, std::int64_t delta) {
  Shard& shard = shard_for_thread();
  const std::lock_guard<std::mutex> lock(shard.mu);
  slot(shard, name, MetricKind::kCounter).counter += delta;
}

void MetricsRegistry::gauge_set(std::string_view name, double value) {
  const std::uint64_t seq =
      gauge_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& shard = shard_for_thread();
  const std::lock_guard<std::mutex> lock(shard.mu);
  Metric& metric = slot(shard, name, MetricKind::kGauge);
  metric.gauge = value;
  metric.gauge_seq = seq;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  Shard& shard = shard_for_thread();
  const std::lock_guard<std::mutex> lock(shard.mu);
  Metric& metric = slot(shard, name, MetricKind::kHistogram);
  if (metric.histogram) metric.histogram->observe(value);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Merge shards in index order into a name-sorted map. Counters and bucket
  // counts are sums (order-independent); gauges keep the write with the
  // highest global sequence number.
  std::map<std::string, SnapshotEntry> merged;
  std::map<std::string, std::uint64_t> gauge_seqs;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [name, metric] : shard.metrics) {
      auto [it, inserted] = merged.try_emplace(name);
      SnapshotEntry& entry = it->second;
      if (inserted) {
        entry.name = name;
        entry.kind = metric.kind;
      }
      switch (metric.kind) {
        case MetricKind::kCounter:
          entry.counter += metric.counter;
          break;
        case MetricKind::kGauge:
          if (metric.gauge_seq >= gauge_seqs[name]) {
            gauge_seqs[name] = metric.gauge_seq;
            entry.gauge = metric.gauge;
          }
          break;
        case MetricKind::kHistogram:
          if (metric.histogram) entry.histogram.merge(*metric.histogram);
          break;
      }
    }
  }
  MetricsSnapshot snapshot;
  snapshot.entries.reserve(merged.size());
  for (auto& [name, entry] : merged) snapshot.entries.push_back(std::move(entry));
  return snapshot;
}

const SnapshotEntry* MetricsSnapshot::find(std::string_view name) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const SnapshotEntry& entry, std::string_view key) {
        return entry.name < key;
      });
  if (it == entries.end() || it->name != name) return nullptr;
  return &*it;
}

util::Table MetricsSnapshot::to_table() const {
  util::Table table(
      {"metric", "kind", "count", "value", "sum", "min", "max", "mean"});
  for (const SnapshotEntry& entry : entries) {
    table.row().cell(entry.name).cell(metric_kind_name(entry.kind));
    switch (entry.kind) {
      case MetricKind::kCounter:
        table.cell("").integer(entry.counter).cell("").cell("").cell("").cell(
            "");
        break;
      case MetricKind::kGauge:
        table.cell("").num(entry.gauge, 6).cell("").cell("").cell("").cell("");
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = entry.histogram;
        table.integer(h.count).cell("");
        if (h.count > 0) {
          table.num(h.sum, 6).num(h.min, 6).num(h.max, 6).num(h.mean(), 6);
        } else {
          table.cell("").cell("").cell("").cell("");
        }
        break;
      }
    }
  }
  return table;
}

void MetricsSnapshot::write_csv(const std::string& path) const {
  to_table().write_csv(path);
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first_entry = true;
  for (const SnapshotEntry& entry : entries) {
    if (!first_entry) out << ',';
    first_entry = false;
    out << "{\"name\":\"" << json_escape(entry.name) << "\",\"kind\":\""
        << metric_kind_name(entry.kind) << '"';
    switch (entry.kind) {
      case MetricKind::kCounter:
        out << ",\"value\":" << entry.counter;
        break;
      case MetricKind::kGauge:
        out << ",\"value\":" << format_double(entry.gauge);
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = entry.histogram;
        out << ",\"count\":" << h.count << ",\"non_finite\":" << h.non_finite;
        if (h.count > 0) {
          out << ",\"sum\":" << format_double(h.sum)
              << ",\"min\":" << format_double(h.min)
              << ",\"max\":" << format_double(h.max)
              << ",\"mean\":" << format_double(h.mean());
        }
        // Cumulative buckets (Prometheus "le" semantics); empty trailing
        // buckets are elided but the cumulative count is preserved.
        out << ",\"buckets\":[";
        std::uint64_t cumulative = 0;
        bool first_bucket = true;
        for (std::size_t j = 0; j < h.buckets.size(); ++j) {
          cumulative += h.buckets[j];
          if (h.buckets[j] == 0) continue;
          if (!first_bucket) out << ',';
          first_bucket = false;
          const double upper =
              j + 1 < h.buckets.size()
                  ? histogram_bucket_lower(static_cast<int>(j) + 1)
                  : std::numeric_limits<double>::infinity();
          out << "{\"le\":" << format_double(upper)
              << ",\"count\":" << cumulative << '}';
        }
        out << ']';
        break;
      }
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

void MetricsSnapshot::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("MetricsSnapshot: cannot open " + path);
  }
  out << to_json() << '\n';
  if (!out) {
    throw std::runtime_error("MetricsSnapshot: failed writing " + path);
  }
}

}  // namespace socl::obs
