// Request-arrival streams for the serverless runtime simulator.
//
// The slot simulator and the figure benches need open-loop arrival processes
// (requests hit the platform at wall-clock instants, not in fixed rounds) so
// that container pools actually idle, expire, and cold-start. The stream is
// driven by the same diurnal + bursty intensity profile the synthetic
// Alibaba-style trace generator produces for Fig. 4
// (workload::request_volume_series), rescaled to a per-user rate over the
// simulated window.
//
// Determinism contract: user u's arrivals are a pure function of
// (seed, u, config) — per-user counter-based RNG streams — so adding or
// removing users never perturbs anyone else's arrival times, and the merged
// stream is identical across runs and platforms.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace socl::serverless {

/// One request issuance: user `user`'s `seq`-th request of the window.
struct Arrival {
  double time_s = 0.0;
  int user = -1;
  int seq = 0;
};

struct ArrivalConfig {
  /// Simulated window length in seconds.
  double horizon_s = 120.0;
  /// Expected requests per second per user (window average).
  double mean_rate = 0.05;
  /// Scales the deviation of the diurnal/bursty profile from a flat Poisson
  /// process: 0 = homogeneous, 1 = the trace generator's profile, >1
  /// amplifies peaks and troughs.
  double burstiness = 1.0;
  /// Resolution of the intensity profile across the window.
  int bins = 40;
  std::uint64_t seed = 1;
};

/// Users per block of generate_arrivals: a block's ~160k Knuth
/// draws (40 bins) dwarf its dispatch, and a 100k-user population still
/// spreads over a few dozen blocks. A constant, not a knob: the stream does
/// not depend on it.
inline constexpr int kArrivalBlockUsers = 4096;

/// Arrival intensity per bin, normalised to mean 1 over the window, derived
/// from workload::request_volume_series and shaped by `burstiness`.
std::vector<double> arrival_profile(const ArrivalConfig& config);

/// Deterministic merged arrival stream over `num_users` users, sorted by
/// (time, user, seq). Users are drawn in fixed-size blocks on `threads`
/// lanes of util::shared_pool() (1 = serial, 0 = the whole pool); the
/// per-user streams are independent and the sort key is a total order, so
/// the stream is bit-identical for any lane count.
std::vector<Arrival> generate_arrivals(int num_users,
                                       const ArrivalConfig& config,
                                       int threads = 1);

/// Partitions a merged stream into `groups` per-group streams by
/// `group_of[arrival.user]`, preserving the (time, user, seq) order inside
/// each group — so each group's stream is exactly the merged stream
/// restricted to its users. The sharded serving loop splits the global day
/// into per-metro DES windows through this seam; with one group the split
/// returns the input stream verbatim. Throws std::out_of_range when a user
/// id has no group entry and std::invalid_argument on a group id outside
/// [0, groups).
std::vector<std::vector<Arrival>> split_arrivals(
    std::span<const Arrival> arrivals, std::span<const int> group_of,
    int groups);

}  // namespace socl::serverless
