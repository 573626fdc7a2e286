#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace socl::util {
namespace {

/// Interpolates between two adjacent order statistics without poisoning the
/// result: the textbook `lo + frac * (hi - lo)` evaluates `0.0 * inf` or
/// `inf - inf` (both NaN) when a neighbour is infinite. Exact ranks and
/// equal neighbours short-circuit; a non-finite neighbour falls back to
/// nearest-rank (round half up).
double interpolate_rank(double lo_value, double hi_value, double frac) {
  if (frac == 0.0 || lo_value == hi_value) return lo_value;
  if (!std::isfinite(lo_value) || !std::isfinite(hi_value)) {
    return frac < 0.5 ? lo_value : hi_value;
  }
  return lo_value + frac * (hi_value - lo_value);
}

/// NaN breaks the strict weak ordering std::sort / std::nth_element require,
/// which silently scrambles the order statistics; reject it up front.
void reject_nan(const std::vector<double>& values, const char* fn) {
  for (const double v : values) {
    if (std::isnan(v)) {
      throw std::invalid_argument(std::string(fn) + ": NaN in input");
    }
  }
}

}  // namespace

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p out of [0,100]");
  }
  reject_nan(values, "percentile");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return interpolate_rank(values[lo], values[hi], frac);
}

std::vector<double> quantiles(std::vector<double> values,
                              std::span<const double> ps) {
  if (values.empty()) throw std::invalid_argument("quantiles: empty input");
  reject_nan(values, "quantiles");
  for (const double p : ps) {
    if (p < 0.0 || p > 100.0) {
      throw std::invalid_argument("quantiles: p out of [0,100]");
    }
  }
  // Visit requested ranks ascending so every nth_element partitions only the
  // suffix left unsorted by the previous one.
  std::vector<std::size_t> order(ps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ps[a] < ps[b]; });

  std::vector<double> out(ps.size());
  const std::size_t n = values.size();
  std::size_t sorted_below = 0;  // values[0..sorted_below) is in final order
  for (const std::size_t i : order) {
    const double rank =
        n == 1 ? 0.0 : ps[i] / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    if (hi >= sorted_below) {
      auto begin = values.begin() + static_cast<std::ptrdiff_t>(sorted_below);
      std::nth_element(begin,
                       values.begin() + static_cast<std::ptrdiff_t>(hi),
                       values.end());
      if (lo >= sorted_below && lo < hi) {
        // values[lo] is the max of the left partition.
        std::nth_element(begin,
                         values.begin() + static_cast<std::ptrdiff_t>(lo),
                         values.begin() + static_cast<std::ptrdiff_t>(hi));
      }
      sorted_below = hi + 1;
    }
    out[i] = interpolate_rank(values[lo], values[hi], frac);
  }
  return out;
}

double jaccard_similarity(const std::unordered_set<std::uint64_t>& a,
                          const std::unordered_set<std::uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t intersection = 0;
  const auto& smaller = a.size() <= b.size() ? a : b;
  const auto& larger = a.size() <= b.size() ? b : a;
  for (std::uint64_t item : smaller) {
    if (larger.contains(item)) ++intersection;
  }
  const std::size_t unions = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(unions);
}

double cosine_similarity(std::span<const double> a,
                         std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("cosine_similarity: size mismatch");
  }
  double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    norm_a += a[i] * a[i];
    norm_b += b[i] * b[i];
  }
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  return dot / (std::sqrt(norm_a) * std::sqrt(norm_b));
}

}  // namespace socl::util
