// Chaos lane: the stochastic failure/repair/flash-crowd process injected
// into the serving day. The SoCL paper's premise is latency-optimized
// serving on an *unreliable* edge substrate; this module makes the day
// unreliable — per-node and per-link Poisson failures, log-normal repair
// times, and flash-crowd arrival spikes — while keeping every run
// bit-reproducible: the whole day is precomputed at construction from one
// seed in fixed iteration order, so the schedule is identical across runs
// and thread counts and the serving loop just looks up its slot.
//
// Failures are expressed as cumulative net::FailurePlans over the HEALTHY
// network's ids (node ids stay stable; apply_failures turns a plan into the
// degraded substrate for Scenario::set_network). A connectivity guard
// rejects candidate failures that would disconnect the survivors — global
// by default, per-metro when a metro map is provided, so a backhaul cut CAN
// isolate a whole metro (the sharded coordinator's job) while each metro
// stays internally routable.
#pragma once

#include <cstdint>
#include <vector>

#include "net/failures.h"
#include "net/graph.h"

namespace socl::serve {

struct ChaosConfig {
  /// Master switch: when false the serving day is exactly the healthy day.
  bool enabled = false;
  /// Per-slot failure probability of each alive node (≈ Poisson intensity
  /// for small values; a node is a Poisson process with this rate).
  double node_failure_rate = 0.02;
  /// Per-slot failure probability of each alive link.
  double link_failure_rate = 0.01;
  /// Median repair time in slots; actual repairs draw log-normal
  /// exp(N(ln median, sigma)), rounded and clamped to >= 1 slot.
  double repair_median_slots = 3.0;
  double repair_sigma = 0.5;
  /// Per-slot probability that a flash crowd starts (when none is active).
  double flash_crowd_rate = 0.08;
  /// Arrival-intensity multiplier while a flash crowd is active.
  double flash_crowd_multiplier = 3.0;
  /// Flash-crowd duration in slots.
  int flash_crowd_slots = 2;
  /// Cap on simultaneously-failed nodes as a fraction of the node count.
  double max_failed_node_fraction = 0.25;
  /// Reject candidate failures that would disconnect the survivors
  /// (globally, or within each metro when a metro map is given).
  bool protect_connectivity = true;
  /// First slot at which anything may fail; the day opens healthy so the
  /// loop builds its baseline plan on the full substrate.
  int first_slot = 2;
};

/// What one slot of the day looks like. `plan` is cumulative — every
/// failure currently outstanding, not just this slot's new ones — so
/// apply_failures(healthy, plan) is the slot's whole substrate.
struct SlotChaos {
  net::FailurePlan plan;
  int nodes_failed_now = 0;
  int links_failed_now = 0;
  int nodes_repaired_now = 0;
  int links_repaired_now = 0;
  /// Arrival-intensity multiplier (1.0 outside flash crowds).
  double flash_multiplier = 1.0;
  /// True when `plan` differs from the previous slot's plan (the serving
  /// loop swaps the substrate and forces a replan exactly on these slots).
  bool changed = false;

  bool degraded() const { return !plan.empty(); }
};

/// Deterministic, seed-keyed failure/repair/flash schedule for a whole
/// serving day. Slots are 1-based to match the serving loop.
class ChaosSchedule {
 public:
  /// `metro_of` (optional, node -> metro index) switches the connectivity
  /// guard from global to per-metro: cross-metro links may then be cut
  /// freely (isolating a metro), but each metro's survivors must stay
  /// internally connected through intra-metro links.
  ChaosSchedule(const net::EdgeNetwork& healthy, const ChaosConfig& config,
                int slots, std::uint64_t seed,
                const std::vector<int>* metro_of = nullptr);

  const SlotChaos& slot(int s) const {
    return schedule_.at(static_cast<std::size_t>(s) - 1);
  }
  int slots() const { return static_cast<int>(schedule_.size()); }

 private:
  std::vector<SlotChaos> schedule_;
};

}  // namespace socl::serve
