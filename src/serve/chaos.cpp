#include "serve/chaos.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace socl::serve {
namespace {

/// Outstanding failure state while rolling the day forward. The link mask
/// counts contributions (explicit failure + each failed endpoint) so
/// reviving a node cannot accidentally resurrect an explicitly-failed link.
struct DayState {
  std::vector<std::uint8_t> node_failed;   // 0/1
  std::vector<std::uint8_t> link_down;     // contribution count
  std::vector<std::uint8_t> link_failed;   // 0/1, explicit link failures
  std::vector<int> node_repair_slot;       // 0 = alive
  std::vector<int> link_repair_slot;
};

net::FailureMasks masks_of(const DayState& state) {
  net::FailureMasks masks;
  masks.node = state.node_failed;
  masks.link.assign(state.link_down.size(), 0);
  for (std::size_t l = 0; l < state.link_down.size(); ++l) {
    masks.link[l] = state.link_down[l] != 0 ? 1 : 0;
  }
  return masks;
}

}  // namespace

ChaosSchedule::ChaosSchedule(const net::EdgeNetwork& healthy,
                             const ChaosConfig& config, int slots,
                             std::uint64_t seed,
                             const std::vector<int>* metro_of) {
  if (slots < 0) throw std::invalid_argument("ChaosSchedule: negative slots");
  if (metro_of != nullptr && metro_of->size() != healthy.num_nodes()) {
    throw std::invalid_argument("ChaosSchedule: metro map size mismatch");
  }
  schedule_.resize(static_cast<std::size_t>(slots));
  if (!config.enabled || slots == 0 || healthy.num_nodes() == 0) return;

  util::Rng rng(seed);
  DayState state;
  state.node_failed.assign(healthy.num_nodes(), 0);
  state.link_down.assign(healthy.num_links(), 0);
  state.link_failed.assign(healthy.num_links(), 0);
  state.node_repair_slot.assign(healthy.num_nodes(), 0);
  state.link_repair_slot.assign(healthy.num_links(), 0);

  const auto node_cap = static_cast<int>(
      config.max_failed_node_fraction *
      static_cast<double>(healthy.num_nodes()));
  int nodes_down = 0;

  // A candidate failure survives the guard when every metro's survivors
  // stay mutually reachable (or, without a metro map, when all survivors
  // do). Nodes outside the metro under test are masked out, so only
  // intra-metro links count — a backhaul cut isolates a metro without
  // tripping the guard.
  const auto guard_ok = [&]() {
    if (!config.protect_connectivity) return true;
    const net::FailureMasks masks = masks_of(state);
    if (metro_of == nullptr) {
      return net::survivors_connected(healthy, masks);
    }
    const int metros =
        1 + *std::max_element(metro_of->begin(), metro_of->end());
    for (int m = 0; m < metros; ++m) {
      net::FailureMasks scoped = masks;
      for (std::size_t k = 0; k < scoped.node.size(); ++k) {
        if ((*metro_of)[k] != m) scoped.node[k] = 1;
      }
      if (!net::survivors_connected(healthy, scoped)) return false;
    }
    return true;
  };

  const auto repair_delay = [&]() {
    const double draw = std::exp(
        rng.normal(std::log(config.repair_median_slots), config.repair_sigma));
    return std::max(1, static_cast<int>(std::lround(draw)));
  };

  const auto fail_node = [&](net::NodeId k) {
    state.node_failed[static_cast<std::size_t>(k)] = 1;
    for (const auto& [neighbor, link] : healthy.neighbors(k)) {
      (void)neighbor;
      state.link_down[static_cast<std::size_t>(link)] += 1;
    }
  };
  const auto revive_node = [&](net::NodeId k) {
    state.node_failed[static_cast<std::size_t>(k)] = 0;
    for (const auto& [neighbor, link] : healthy.neighbors(k)) {
      (void)neighbor;
      state.link_down[static_cast<std::size_t>(link)] -= 1;
    }
  };

  int flash_remaining = 0;
  for (int s = 1; s <= slots; ++s) {
    SlotChaos& slot = schedule_[static_cast<std::size_t>(s) - 1];

    if (s >= config.first_slot) {
      // Repairs first: a server that comes back this slot can host again
      // (and pays its cold starts) before new failures are drawn.
      for (std::size_t k = 0; k < state.node_repair_slot.size(); ++k) {
        if (state.node_repair_slot[k] != s) continue;
        state.node_repair_slot[k] = 0;
        revive_node(static_cast<net::NodeId>(k));
        --nodes_down;
        ++slot.nodes_repaired_now;
      }
      for (std::size_t l = 0; l < state.link_repair_slot.size(); ++l) {
        if (state.link_repair_slot[l] != s) continue;
        state.link_repair_slot[l] = 0;
        state.link_failed[l] = 0;
        state.link_down[l] -= 1;
        ++slot.links_repaired_now;
      }

      // New node failures: fixed id order keeps the stream deterministic.
      for (std::size_t k = 0; k < state.node_failed.size(); ++k) {
        if (state.node_failed[k] != 0) continue;
        if (!rng.bernoulli(config.node_failure_rate)) continue;
        if (nodes_down >= node_cap) continue;  // draw consumed, cap binds
        fail_node(static_cast<net::NodeId>(k));
        if (!guard_ok()) {
          revive_node(static_cast<net::NodeId>(k));
          continue;
        }
        ++nodes_down;
        ++slot.nodes_failed_now;
        state.node_repair_slot[k] = s + repair_delay();
      }
      // New link failures (skipping links already down with an endpoint).
      for (std::size_t l = 0; l < state.link_failed.size(); ++l) {
        if (state.link_down[l] != 0) continue;
        if (!rng.bernoulli(config.link_failure_rate)) continue;
        state.link_failed[l] = 1;
        state.link_down[l] += 1;
        if (!guard_ok()) {
          state.link_failed[l] = 0;
          state.link_down[l] -= 1;
          continue;
        }
        ++slot.links_failed_now;
        state.link_repair_slot[l] = s + repair_delay();
      }

      // Flash crowds: at most one active at a time, lasting
      // flash_crowd_slots slots from the slot the draw lands on.
      if (flash_remaining == 0 && rng.bernoulli(config.flash_crowd_rate)) {
        flash_remaining = config.flash_crowd_slots;
      }
      if (flash_remaining > 0) {
        slot.flash_multiplier = config.flash_crowd_multiplier;
        --flash_remaining;
      }
    }

    for (std::size_t k = 0; k < state.node_failed.size(); ++k) {
      if (state.node_failed[k] != 0) {
        slot.plan.failed_nodes.push_back(static_cast<net::NodeId>(k));
      }
    }
    for (std::size_t l = 0; l < state.link_failed.size(); ++l) {
      if (state.link_failed[l] != 0) {
        slot.plan.failed_links.push_back(static_cast<net::LinkId>(l));
      }
    }
    slot.changed =
        s == 1 ? !slot.plan.empty()
               : slot.plan.failed_nodes !=
                         schedule_[static_cast<std::size_t>(s) - 2]
                             .plan.failed_nodes ||
                     slot.plan.failed_links !=
                         schedule_[static_cast<std::size_t>(s) - 2]
                             .plan.failed_links;
  }
}

}  // namespace socl::serve
