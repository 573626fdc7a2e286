// Tests for the observability layer (src/obs/): histogram bucket layout,
// registry merge determinism across thread counts, the null-sink
// zero-allocation guarantee, and trace / metrics JSON well-formedness
// (checked by an actual round-trip parse, not string matching).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/socl.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "util/table.h"

// ---- Global allocation counter (whole-executable operator new override) ----
// Each test target is its own executable, so replacing the global operator
// new here observes every allocation made by the code under test.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// GCC's -Wmismatched-new-delete fires on replaced global allocators built
// on malloc/free even though new/delete are consistently paired; the
// replacement itself is the standard sanctioned form ([new.delete.single]).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace socl::obs {
namespace {

// ---- Minimal JSON value + recursive-descent parser ----
// Just enough to round-trip what the exporters emit; throws on any syntax
// error so a malformed export fails the test loudly.

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value = nullptr;

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value); }
  double num() const { return std::get<double>(value); }
  const std::string& str() const { return std::get<std::string>(value); }
  const JsonArray& arr() const { return std::get<JsonArray>(value); }
  const JsonObject& obj() const { return std::get<JsonObject>(value); }
  const JsonValue& at(const std::string& key) const { return obj().at(key); }
  bool has(const std::string& key) const { return obj().count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::string_view(literal).size();
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue{true};
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue{false};
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{nullptr};
      default: return JsonValue{number()};
    }
  }

  JsonValue object() {
    expect('{');
    JsonObject out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(out)};
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{std::move(out)};
    }
  }

  JsonValue array() {
    expect('[');
    JsonArray out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(out)};
    }
    while (true) {
      out.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{std::move(out)};
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char escape = peek();
      ++pos_;
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          out += text_.substr(pos_, 4);  // keep raw hex, enough for the tests
          pos_ += 4;
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  double number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::stod(text_.substr(start, pos_ - start));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---- Histogram bucket layout ----

TEST(HistogramTest, BucketBoundariesAreExact) {
  // Underflow: anything strictly below kHistogramLowest.
  EXPECT_EQ(histogram_bucket(0.0), 0);
  EXPECT_EQ(histogram_bucket(kHistogramLowest * 0.999), 0);
  EXPECT_EQ(histogram_bucket(-1.0), 0);

  // Every bucket's inclusive lower boundary lands in that bucket, and the
  // largest double strictly below it lands in the previous one.
  for (int j = 1; j <= kHistogramBuckets; ++j) {
    const double lower = histogram_bucket_lower(j);
    EXPECT_EQ(histogram_bucket(lower), j) << "boundary of bucket " << j;
    const double below = std::nextafter(lower, 0.0);
    EXPECT_EQ(histogram_bucket(below), j - 1) << "below bucket " << j;
  }

  // Overflow: at and above kLowest * 2^kBuckets.
  const double top = std::ldexp(kHistogramLowest, kHistogramBuckets);
  EXPECT_EQ(histogram_bucket(top), kHistogramBuckets + 1);
  EXPECT_EQ(histogram_bucket(top * 1e6), kHistogramBuckets + 1);

  // Non-finite samples are flagged, never bucketed.
  EXPECT_EQ(histogram_bucket(std::nan("")), -1);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<double>::infinity()), -1);
}

TEST(HistogramTest, BucketLowerBoundsArePowersOfTwo) {
  EXPECT_EQ(histogram_bucket_lower(1), kHistogramLowest);
  for (int j = 2; j <= kHistogramBuckets + 1; ++j) {
    EXPECT_DOUBLE_EQ(histogram_bucket_lower(j),
                     2.0 * histogram_bucket_lower(j - 1));
  }
}

TEST(HistogramTest, ObserveAndMergeTrackMoments) {
  HistogramData a;
  a.observe(2e-6);
  a.observe(3e-6);
  a.observe(std::numeric_limits<double>::infinity());
  HistogramData b;
  b.observe(1e-3);

  a.merge(b);
  EXPECT_EQ(a.count, 3);
  EXPECT_EQ(a.non_finite, 1);
  EXPECT_DOUBLE_EQ(a.sum, 2e-6 + 3e-6 + 1e-3);
  EXPECT_DOUBLE_EQ(a.min, 2e-6);
  EXPECT_DOUBLE_EQ(a.max, 1e-3);
  std::uint64_t total = 0;
  for (const auto n : a.buckets) total += n;
  EXPECT_EQ(total, 3u);
}

// ---- Registry merge determinism ----

/// Runs the same deterministic workload split across `num_threads` writer
/// threads and snapshots the result. Samples are integer-valued doubles so
/// the merged sums are exact regardless of accumulation order.
MetricsSnapshot run_workload(int num_threads, int total_ops) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < total_ops; i += num_threads) {
        registry.counter_add("socl.test.ops", 1);
        registry.counter_add("socl.test.weighted", i % 7);
        registry.observe("socl.test.latency_us", static_cast<double>(i % 100));
        registry.gauge_set("socl.test.level", 42.0);  // same value everywhere
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return registry.snapshot();
}

TEST(MetricsRegistryTest, MergeIsDeterministicAcrossThreadCounts) {
  constexpr int kOps = 4000;
  const MetricsSnapshot reference = run_workload(1, kOps);
  ASSERT_EQ(reference.entries.size(), 4u);
  // Name-sorted order is part of the contract.
  EXPECT_EQ(reference.entries[0].name, "socl.test.latency_us");
  EXPECT_EQ(reference.entries[1].name, "socl.test.level");
  EXPECT_EQ(reference.entries[2].name, "socl.test.ops");
  EXPECT_EQ(reference.entries[3].name, "socl.test.weighted");

  for (const int threads : {2, 3, 8, 16, 23}) {
    const MetricsSnapshot snapshot = run_workload(threads, kOps);
    ASSERT_EQ(snapshot.entries.size(), reference.entries.size())
        << threads << " threads";
    for (std::size_t i = 0; i < reference.entries.size(); ++i) {
      const auto& want = reference.entries[i];
      const auto& got = snapshot.entries[i];
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(got.kind, want.kind);
      EXPECT_EQ(got.counter, want.counter) << got.name;
      EXPECT_EQ(got.gauge, want.gauge) << got.name;
      EXPECT_EQ(got.histogram.count, want.histogram.count) << got.name;
      EXPECT_EQ(got.histogram.sum, want.histogram.sum) << got.name;
      EXPECT_EQ(got.histogram.min, want.histogram.min) << got.name;
      EXPECT_EQ(got.histogram.max, want.histogram.max) << got.name;
      EXPECT_EQ(got.histogram.buckets, want.histogram.buckets) << got.name;
    }
  }
}

TEST(MetricsRegistryTest, GaugeIsLastWriteWins) {
  MetricsRegistry registry;
  registry.gauge_set("socl.test.g", 1.0);
  registry.gauge_set("socl.test.g", 2.0);
  registry.gauge_set("socl.test.g", 3.0);
  const auto snapshot = registry.snapshot();
  const auto* entry = snapshot.find("socl.test.g");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(entry->gauge, 3.0);
}

TEST(MetricsRegistryTest, CsvHeaderMatchesDocumentedSchema) {
  MetricsRegistry registry;
  registry.counter_add("socl.test.c", 5);
  registry.observe("socl.test.h", 2.0);
  const std::string csv = registry.snapshot().to_table().to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "metric,kind,count,value,sum,min,max,mean");
}

// ---- Null-sink zero-allocation / no-work guarantee ----

TEST(NullSinkTest, InstrumentationWithNullSinkDoesNotAllocate) {
  ObsSink* const sink = nullptr;
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    const ScopedSpan span(sink, Phase::kRouting, "test.noop");
    add_counter(sink, "socl.test.c", 1);
    set_gauge(sink, "socl.test.g", 1.0);
    observe(sink, "socl.test.h", 1.0);
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

// ---- Trace buffer + JSON round-trips ----

TEST(TraceBufferTest, ChromeJsonRoundTrips) {
  TraceBuffer buffer;
  buffer.record(Phase::kPartition, "alg1", 10.0, 5.0);
  buffer.record(Phase::kRouting, "score \"quoted\"", 20.0, 2.5);
  std::thread other(
      [&] { buffer.record(Phase::kCombination, "alg3", 30.0, 1.0); });
  other.join();
  ASSERT_EQ(buffer.size(), 3u);

  const JsonValue root = JsonParser(buffer.to_chrome_json()).parse();
  ASSERT_TRUE(root.has("traceEvents"));
  const auto& events = root.at("traceEvents").arr();

  int complete_events = 0;
  bool saw_other_thread = false;
  for (const auto& event : events) {
    if (event.at("ph").str() != "X") continue;
    ++complete_events;
    EXPECT_GE(event.at("ts").num(), 0.0);
    EXPECT_GE(event.at("dur").num(), 0.0);
    EXPECT_FALSE(event.at("name").str().empty());
    EXPECT_FALSE(event.at("cat").str().empty());
    if (event.at("tid").num() != 0.0) saw_other_thread = true;
    if (event.at("name").str() == "score \"quoted\"") {
      EXPECT_EQ(event.at("cat").str(), "routing");
      EXPECT_DOUBLE_EQ(event.at("ts").num(), 20.0);
      EXPECT_DOUBLE_EQ(event.at("dur").num(), 2.5);
    }
  }
  EXPECT_EQ(complete_events, 3);
  EXPECT_TRUE(saw_other_thread);  // dense tids distinguish the two threads
}

TEST(MetricsSnapshotTest, JsonRoundTripsWithCumulativeBuckets) {
  MetricsRegistry registry;
  registry.counter_add("socl.test.c", 7);
  registry.gauge_set("socl.test.g", 1.5);
  registry.observe("socl.test.h", 2e-6);
  registry.observe("socl.test.h", 2e-6);
  registry.observe("socl.test.h", 1e-3);
  registry.observe("socl.test.h", 1e12);  // overflow bucket → "le": null

  const JsonValue root = JsonParser(registry.snapshot().to_json()).parse();
  ASSERT_TRUE(root.has("metrics"));
  const auto& metrics = root.at("metrics").arr();
  ASSERT_EQ(metrics.size(), 3u);

  const auto& counter = metrics[0];
  EXPECT_EQ(counter.at("name").str(), "socl.test.c");
  EXPECT_EQ(counter.at("kind").str(), "counter");
  EXPECT_DOUBLE_EQ(counter.at("value").num(), 7.0);

  const auto& gauge = metrics[1];
  EXPECT_EQ(gauge.at("kind").str(), "gauge");
  EXPECT_DOUBLE_EQ(gauge.at("value").num(), 1.5);

  const auto& hist = metrics[2];
  EXPECT_EQ(hist.at("kind").str(), "histogram");
  EXPECT_DOUBLE_EQ(hist.at("count").num(), 4.0);
  const auto& buckets = hist.at("buckets").arr();
  ASSERT_FALSE(buckets.empty());
  // Cumulative "le" counts are non-decreasing and end at the total count
  // with le = null (the +inf bucket).
  double prev = 0.0;
  for (const auto& bucket : buckets) {
    const double cumulative = bucket.at("count").num();
    EXPECT_GE(cumulative, prev);
    prev = cumulative;
  }
  EXPECT_DOUBLE_EQ(prev, 4.0);
  EXPECT_TRUE(buckets.back().at("le").is_null());
}

// ---- Recorder end-to-end over a real solve ----

TEST(RecorderTest, SolveCoversAllAlgorithmPhases) {
  core::ScenarioConfig config;
  config.num_nodes = 8;
  config.num_users = 25;
  const auto scenario = core::make_scenario(config, 9);

  Recorder recorder;
  core::SoCLParams params;
  params.sink = &recorder;
  const auto solution = core::SoCL(params).solve(scenario);
  EXPECT_TRUE(solution.evaluation.routable);

  std::map<std::string, int> cats;
  for (const auto& event : recorder.trace().events()) {
    ++cats[phase_name(event.phase)];
  }
  for (const char* phase :
       {"partition", "preprovision", "combination", "fuzzy_ahp", "routing"}) {
    EXPECT_GT(cats[phase], 0) << "no spans for phase " << phase;
  }

  const auto snapshot = recorder.metrics().snapshot();
  const auto* solves = snapshot.find("socl.core.solves");
  ASSERT_NE(solves, nullptr);
  EXPECT_EQ(solves->counter, 1);
  const auto* spans = snapshot.find("socl.span.routing_us");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->kind, MetricKind::kHistogram);
  EXPECT_GT(spans->histogram.count, 0);
}

}  // namespace
}  // namespace socl::obs
