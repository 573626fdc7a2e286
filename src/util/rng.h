// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in the library takes an explicit seed (or an
// Rng&) so that benchmark tables regenerate identically across runs and
// platforms. The generator is xoshiro256**, seeded via SplitMix64; both are
// implemented here rather than relying on <random> engines whose streams are
// not guaranteed to be identical across standard-library implementations.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace socl::util {

/// xoshiro256** generator with distribution helpers.
///
/// Satisfies the UniformRandomBitGenerator concept, so it can also be used
/// with <random> distributions when exact stream reproducibility across
/// platforms is not required.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from a single seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit word.
  result_type operator()() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    // 53 random mantissa bits -> uniform in [0, 1).
    const double unit = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    return lo + unit * (hi - lo);
  }

  /// Standard normal via Box-Muller (cached second variate).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Poisson-distributed count (Knuth for small means, normal approx above).
  std::uint64_t poisson(double mean);

  /// Knuth's Poisson draw against a precomputed `threshold` = exp(-mean):
  /// for 0 < mean < 30, poisson(mean) makes exactly this draw. Lets callers
  /// that draw many counts with one mean evaluate the exp once.
  std::uint64_t poisson_knuth(double threshold) {
    std::uint64_t count = 0;
    double product = uniform();
    while (product > threshold) {
      ++count;
      product *= uniform();
    }
    return count;
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Uniformly chosen index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick: empty span");
    return items[index(items.size())];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Weighted index selection proportional to non-negative weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(std::span<const double> weights);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace socl::util
