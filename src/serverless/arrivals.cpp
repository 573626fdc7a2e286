#include "serverless/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace socl::serverless {
namespace {

/// SplitMix64-style stream derivation so per-user streams are independent of
/// the user count (the Rng constructor finishes the mixing).
std::uint64_t mix_stream(std::uint64_t seed, std::uint64_t stream) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
}

/// Appends users [begin, end)'s arrivals to `out`, user-major and each
/// user's in time order. `expected` / `threshold` are the per-bin means and
/// Knuth thresholds (threshold 0: draw through Rng::poisson).
void draw_users(int begin, int end, const ArrivalConfig& config,
                double bin_len, const std::vector<double>& expected,
                const std::vector<double>& threshold,
                std::vector<Arrival>& out) {
  std::vector<double> times;
  for (int u = begin; u < end; ++u) {
    util::Rng rng(mix_stream(config.seed, static_cast<std::uint64_t>(u)));
    times.clear();
    for (int b = 0; b < config.bins; ++b) {
      const auto bin = static_cast<std::size_t>(b);
      const auto count = threshold[bin] > 0.0
                             ? rng.poisson_knuth(threshold[bin])
                             : rng.poisson(expected[bin]);
      const double lo = static_cast<double>(b) * bin_len;
      for (std::uint64_t i = 0; i < count; ++i) {
        times.push_back(lo + rng.uniform(0.0, bin_len));
      }
    }
    std::sort(times.begin(), times.end());
    for (std::size_t i = 0; i < times.size(); ++i) {
      out.push_back({times[i], u, static_cast<int>(i)});
    }
  }
}

}  // namespace

std::vector<double> arrival_profile(const ArrivalConfig& config) {
  if (config.bins <= 0 || config.horizon_s <= 0.0) {
    throw std::invalid_argument("arrival_profile: non-positive window");
  }
  // The trace generator emits a Fig. 4-style diurnal + bursty volume series;
  // sample it at bin resolution and renormalise to mean 1.
  const int bins_per_hour = 4;
  const int hours = (config.bins + bins_per_hour - 1) / bins_per_hour;
  const auto series = workload::request_volume_series(
      hours, bins_per_hour, /*base_rate=*/1000.0, config.seed ^ 0xF19A4ULL);

  std::vector<double> profile(static_cast<std::size_t>(config.bins), 1.0);
  double sum = 0.0;
  for (int b = 0; b < config.bins; ++b) {
    profile[static_cast<std::size_t>(b)] =
        series[static_cast<std::size_t>(b) % series.size()];
    sum += profile[static_cast<std::size_t>(b)];
  }
  const double mean = sum / static_cast<double>(config.bins);
  for (auto& value : profile) {
    const double relative = mean > 0.0 ? value / mean : 1.0;
    value = std::max(0.05, 1.0 + config.burstiness * (relative - 1.0));
  }
  return profile;
}

std::vector<Arrival> generate_arrivals(int num_users,
                                       const ArrivalConfig& config,
                                       util::ThreadPool* pool) {
  if (num_users < 0) {
    throw std::invalid_argument("generate_arrivals: negative user count");
  }
  const auto profile = arrival_profile(config);
  const double bin_len =
      config.horizon_s / static_cast<double>(config.bins);

  // A bin's mean is the same for every user, so its Knuth threshold
  // exp(-mean) is computed once here. Bins outside Knuth's range (mean <= 0,
  // >= 30 or NaN) keep threshold 0 and draw through Rng::poisson, which keeps
  // its exceptions and its normal approximation.
  std::vector<double> expected(profile.size());
  std::vector<double> threshold(profile.size(), 0.0);
  for (std::size_t b = 0; b < profile.size(); ++b) {
    expected[b] = config.mean_rate * bin_len * profile[b];
    if (expected[b] > 0.0 && expected[b] < 30.0) {
      threshold[b] = std::exp(-expected[b]);
    }
  }

  std::vector<Arrival> all;
  constexpr int kBlock = kArrivalBlockUsers;
  const int blocks = num_users / kBlock + (num_users % kBlock != 0 ? 1 : 0);
  if (pool == nullptr || blocks <= 1) {
    draw_users(0, num_users, config, bin_len, expected, threshold, all);
  } else {
    // Each block draws into its own vector; joined in user order they are
    // the serial draw's pre-sort stream.
    std::vector<std::vector<Arrival>> parts(static_cast<std::size_t>(blocks));
    pool->parallel_for(parts.size(), [&](std::size_t block) {
      const int begin = static_cast<int>(block) * kBlock;
      draw_users(begin, begin + std::min(kBlock, num_users - begin), config,
                 bin_len, expected, threshold, parts[block]);
    });
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    all.reserve(total);
    for (const auto& part : parts) {
      all.insert(all.end(), part.begin(), part.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Arrival& a, const Arrival& b) {
    if (a.time_s != b.time_s) return a.time_s < b.time_s;
    if (a.user != b.user) return a.user < b.user;
    return a.seq < b.seq;
  });
  return all;
}

std::vector<std::vector<Arrival>> split_arrivals(
    std::span<const Arrival> arrivals, std::span<const int> group_of,
    int groups) {
  if (groups <= 0) {
    throw std::invalid_argument("split_arrivals: groups <= 0");
  }
  std::vector<std::vector<Arrival>> out(static_cast<std::size_t>(groups));
  for (const Arrival& arrival : arrivals) {
    const std::size_t user = static_cast<std::size_t>(arrival.user);
    if (user >= group_of.size()) {
      throw std::out_of_range("split_arrivals: user without a group");
    }
    const int group = group_of[user];
    if (group < 0 || group >= groups) {
      throw std::invalid_argument("split_arrivals: group id out of range");
    }
    out[static_cast<std::size_t>(group)].push_back(arrival);
  }
  return out;
}

}  // namespace socl::serverless
