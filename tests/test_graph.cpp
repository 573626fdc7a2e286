// Tests for the edge-network graph and the Shannon link-rate model.
#include "net/graph.h"

#include <gtest/gtest.h>

#include <cmath>

namespace socl::net {
namespace {

EdgeNetwork two_node_net(double rate = 10.0) {
  EdgeNetwork net;
  net.add_node({});
  net.add_node({});
  net.add_link_with_rate(0, 1, rate);
  return net;
}

TEST(ShannonRate, MatchesFormula) {
  // b = B log2(1 + γg/N)
  const double b = shannon_rate_gbps(10.0, 1.0, 1e-7, 1e-9);
  EXPECT_NEAR(b, 10.0 * std::log2(1.0 + 100.0), 1e-9);
}

TEST(ShannonRate, ZeroOnDegenerateInputs) {
  EXPECT_EQ(shannon_rate_gbps(0.0, 1.0, 1e-7, 1e-9), 0.0);
  EXPECT_EQ(shannon_rate_gbps(10.0, 1.0, 0.0, 1e-9), 0.0);
  EXPECT_EQ(shannon_rate_gbps(10.0, 1.0, 1e-7, 0.0), 0.0);
}

TEST(ShannonRate, MonotoneInGain) {
  const double low = shannon_rate_gbps(10.0, 1.0, 1e-8, 1e-9);
  const double high = shannon_rate_gbps(10.0, 1.0, 1e-6, 1e-9);
  EXPECT_LT(low, high);
}

TEST(EdgeNetwork, NodeIdsAreDense) {
  EdgeNetwork net;
  EXPECT_EQ(net.add_node({}), 0);
  EXPECT_EQ(net.add_node({}), 1);
  EXPECT_EQ(net.num_nodes(), 2u);
}

TEST(EdgeNetwork, AddLinkWiresAdjacencyBothWays) {
  auto net = two_node_net();
  ASSERT_EQ(net.neighbors(0).size(), 1u);
  ASSERT_EQ(net.neighbors(1).size(), 1u);
  EXPECT_EQ(net.neighbors(0)[0].neighbor, 1);
  EXPECT_EQ(net.neighbors(1)[0].neighbor, 0);
  EXPECT_TRUE(net.has_link(0, 1));
  EXPECT_TRUE(net.has_link(1, 0));
}

TEST(EdgeNetwork, MissingLinkIsAbsent) {
  EdgeNetwork net;
  net.add_node({});
  net.add_node({});
  EXPECT_FALSE(net.has_link(0, 1));
}

TEST(EdgeNetwork, RejectsSelfLoopAndNegativeRate) {
  auto net = two_node_net();
  EXPECT_THROW(net.add_link_with_rate(0, 0, 1.0), std::invalid_argument);
  net.add_node({});
  EXPECT_THROW(net.add_link_with_rate(0, 2, -5.0), std::invalid_argument);
}

TEST(EdgeNetwork, ZeroRateLinkIsRecordedButDead) {
  // A blocked channel (shannon_rate_gbps == 0) is a real link that carries
  // nothing: it must be representable.
  auto net = two_node_net(10.0);
  net.add_node({});
  const LinkId dead = net.add_link_with_rate(0, 2, 0.0);
  EXPECT_EQ(net.num_links(), 2u);
  EXPECT_DOUBLE_EQ(net.link(dead).rate_gbps, 0.0);
  EXPECT_TRUE(net.has_link(0, 2));
}

TEST(EdgeNetwork, AllowsParallelLinks) {
  auto net = two_node_net(10.0);
  const LinkId second = net.add_link_with_rate(0, 1, 25.0);
  EXPECT_EQ(net.num_links(), 2u);
  EXPECT_EQ(net.link(second).rate_gbps, 25.0);
  EXPECT_EQ(net.degree(0), 2u);
}

TEST(EdgeNetwork, RejectsBadNodeIds) {
  EdgeNetwork net;
  net.add_node({});
  EXPECT_THROW(net.node(1), std::out_of_range);
  EXPECT_THROW(net.node(-1), std::out_of_range);
  EXPECT_THROW(net.neighbors(3), std::out_of_range);
}

TEST(EdgeNetwork, DegreeCountsIncidences) {
  EdgeNetwork net;
  for (int i = 0; i < 4; ++i) net.add_node({});
  net.add_link_with_rate(0, 1, 1.0);
  net.add_link_with_rate(0, 2, 1.0);
  net.add_link_with_rate(0, 3, 1.0);
  EXPECT_EQ(net.degree(0), 3u);
  EXPECT_EQ(net.degree(1), 1u);
}

TEST(EdgeNetwork, ConnectedDetection) {
  EdgeNetwork net;
  for (int i = 0; i < 3; ++i) net.add_node({});
  net.add_link_with_rate(0, 1, 1.0);
  EXPECT_FALSE(net.connected());
  net.add_link_with_rate(1, 2, 1.0);
  EXPECT_TRUE(net.connected());
}

TEST(EdgeNetwork, EmptyNetworkIsConnected) {
  EdgeNetwork net;
  EXPECT_TRUE(net.connected());
}

TEST(EdgeNetwork, ShannonLinkUsesNodePower) {
  EdgeNetwork net(1e-9);
  EdgeNode node;
  node.tx_power_w = 2.0;
  net.add_node(node);
  net.add_node({});
  const LinkId l = net.add_link(0, 1, 10.0, 1e-7);
  EXPECT_NEAR(net.link(l).rate_gbps,
              shannon_rate_gbps(10.0, 2.0, 1e-7, 1e-9), 1e-12);
}

}  // namespace
}  // namespace socl::net
