#include "core/partition.h"

#include <algorithm>
#include <stdexcept>

namespace socl::core {

double proactive_factor(const Scenario& scenario, MsId m,
                        std::span<const NodeId> group, NodeId eta, NodeId a) {
  const auto& vlinks = scenario.vlinks();
  double via_eta = 0.0;
  double via_a = 0.0;
  for (const NodeId v_i : group) {
    const double data = scenario.demand_data(m, v_i);
    if (data <= 0.0) continue;  // candidates carry no demand
    via_eta += vlinks.transfer_time(data, v_i, eta);
    via_a += vlinks.transfer_time(data, v_i, a);
  }
  return via_eta - via_a;
}

double resolve_xi(const Scenario& scenario, MsId m,
                  const PartitionConfig& config) {
  if (config.xi_absolute >= 0.0) return config.xi_absolute;
  const auto& demand = scenario.demand_nodes(m);
  std::vector<double> rates;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    for (std::size_t j = i + 1; j < demand.size(); ++j) {
      rates.push_back(scenario.vlinks().rate(demand[i], demand[j]));
    }
  }
  if (rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  const double quantile = std::clamp(config.xi_quantile, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      quantile * static_cast<double>(rates.size() - 1));
  return rates[idx];
}

Partitioning initial_partition(const Scenario& scenario,
                               const PartitionConfig& config) {
  Partitioning partitioning;
  partitioning.per_ms.resize(
      static_cast<std::size_t>(scenario.num_microservices()));

  const auto& vlinks = scenario.vlinks();
  const auto& network = scenario.network();

  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    auto& partition = partitioning.per_ms[static_cast<std::size_t>(m)];
    const auto& demand = scenario.demand_nodes(m);
    if (demand.empty()) continue;  // no requests for m: nothing to place

    // Virtual graph over V(m): keep links with B(l') > ξ, components are
    // the initial groups (lines 1-7 of Algorithm 1).
    const double xi = resolve_xi(scenario, m, config);
    std::vector<int> component(demand.size(), -1);
    int num_components = 0;
    for (std::size_t seed = 0; seed < demand.size(); ++seed) {
      if (component[seed] >= 0) continue;
      const int comp = num_components++;
      std::vector<std::size_t> stack{seed};
      component[seed] = comp;
      while (!stack.empty()) {
        const std::size_t u = stack.back();
        stack.pop_back();
        for (std::size_t v = 0; v < demand.size(); ++v) {
          if (component[v] >= 0) continue;
          if (vlinks.rate(demand[u], demand[v]) > xi) {
            component[v] = comp;
            stack.push_back(v);
          }
        }
      }
    }
    partition.groups.assign(static_cast<std::size_t>(num_components), {});
    for (std::size_t i = 0; i < demand.size(); ++i) {
      partition.groups[static_cast<std::size_t>(component[i])].push_back(
          demand[i]);
    }

    if (!config.add_candidates) continue;

    // Candidate-node augmentation (lines 8-14). χ ordering is precomputed by
    // VirtualLinks::intensity; validation walks group members in ascending χ
    // and stops at the first Δ^η < 0 witness.
    for (NodeId v_k = 0; v_k < scenario.num_nodes(); ++v_k) {
      if (std::find(demand.begin(), demand.end(), v_k) != demand.end()) {
        continue;  // already a demand node
      }
      if (network.degree(v_k) <= 2) continue;  // Theorem 1: H > 2 required
      for (auto& group : partition.groups) {
        // Candidates already appended to this group are skipped.
        if (std::find(group.begin(), group.end(), v_k) != group.end()) {
          continue;
        }
        std::vector<NodeId> ordered(group.begin(), group.end());
        std::sort(ordered.begin(), ordered.end(),
                  [&](NodeId a, NodeId b) {
                    return vlinks.intensity(a) < vlinks.intensity(b);
                  });
        bool qualifies = false;
        for (const NodeId v_a : ordered) {
          if (proactive_factor(scenario, m, group, v_k, v_a) < 0.0) {
            qualifies = true;
            break;
          }
        }
        if (qualifies) {
          group.push_back(v_k);
          break;  // one group per candidate node
        }
      }
    }
  }
  return partitioning;
}

}  // namespace socl::core
