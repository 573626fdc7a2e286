// Tests for min-hop all-pairs shortest paths with bottleneck tie-breaking.
#include "net/shortest_path.h"

#include <gtest/gtest.h>

#include <cmath>

namespace socl::net {
namespace {

/// Path graph 0-1-2-3 with distinct rates.
EdgeNetwork path_graph() {
  EdgeNetwork net;
  for (int i = 0; i < 4; ++i) net.add_node({});
  net.add_link_with_rate(0, 1, 10.0);
  net.add_link_with_rate(1, 2, 20.0);
  net.add_link_with_rate(2, 3, 40.0);
  return net;
}

TEST(ShortestPaths, HopCounts) {
  auto net = path_graph();
  ShortestPaths sp(net);
  EXPECT_EQ(sp.hops(0, 0), 0);
  EXPECT_EQ(sp.hops(0, 1), 1);
  EXPECT_EQ(sp.hops(0, 3), 3);
  EXPECT_EQ(sp.hops(3, 0), 3);
}

TEST(ShortestPaths, PathLinksWalkSourceToTarget) {
  auto net = path_graph();
  ShortestPaths sp(net);
  const auto links = sp.path_links(0, 3);
  ASSERT_EQ(links.size(), 3u);
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_EQ(net.link(links[i]).a, static_cast<NodeId>(i));
    EXPECT_EQ(net.link(links[i]).b, static_cast<NodeId>(i + 1));
  }
}

TEST(ShortestPaths, SelfPath) {
  auto net = path_graph();
  ShortestPaths sp(net);
  EXPECT_TRUE(sp.path_links(2, 2).empty());
  EXPECT_DOUBLE_EQ(sp.inverse_rate_sum(2, 2), 0.0);
}

TEST(ShortestPaths, PathLinksMatchNodeSequence) {
  auto net = path_graph();
  ShortestPaths sp(net);
  const auto links = sp.path_links(0, 3);
  ASSERT_EQ(links.size(), 3u);
  EXPECT_DOUBLE_EQ(net.link(links[0]).rate_gbps, 10.0);
  EXPECT_DOUBLE_EQ(net.link(links[2]).rate_gbps, 40.0);
}

TEST(ShortestPaths, InverseRateSum) {
  auto net = path_graph();
  ShortestPaths sp(net);
  EXPECT_NEAR(sp.inverse_rate_sum(0, 3), 1.0 / 10 + 1.0 / 20 + 1.0 / 40,
              1e-12);
}

TEST(ShortestPaths, BottleneckRate) {
  auto net = path_graph();
  ShortestPaths sp(net);
  EXPECT_DOUBLE_EQ(sp.bottleneck_rate(0, 3), 10.0);
  EXPECT_DOUBLE_EQ(sp.bottleneck_rate(2, 3), 40.0);
  EXPECT_TRUE(std::isinf(sp.bottleneck_rate(1, 1)));
}

TEST(ShortestPaths, DisconnectedIsUnreachable) {
  EdgeNetwork net;
  for (int i = 0; i < 3; ++i) net.add_node({});
  net.add_link_with_rate(0, 1, 5.0);
  ShortestPaths sp(net);
  EXPECT_EQ(sp.hops(0, 2), ShortestPaths::unreachable());
  EXPECT_FALSE(sp.reachable(0, 2));
  EXPECT_TRUE(sp.path_links(0, 2).empty());
  EXPECT_TRUE(std::isinf(sp.inverse_rate_sum(0, 2)));
  EXPECT_DOUBLE_EQ(sp.bottleneck_rate(0, 2), 0.0);
}

TEST(ShortestPaths, EqualHopTieBreaksTowardStrongerBottleneck) {
  // Diamond: 0-1-3 (weak first hop) vs 0-2-3 (strong both hops).
  EdgeNetwork net;
  for (int i = 0; i < 4; ++i) net.add_node({});
  net.add_link_with_rate(0, 1, 1.0);
  net.add_link_with_rate(1, 3, 100.0);
  net.add_link_with_rate(0, 2, 50.0);
  net.add_link_with_rate(2, 3, 60.0);
  ShortestPaths sp(net);
  EXPECT_EQ(sp.hops(0, 3), 2);
  const auto links = sp.path_links(0, 3);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(net.link(links[0]).b, 2);  // stronger bottleneck (50 vs 1)
  EXPECT_DOUBLE_EQ(sp.bottleneck_rate(0, 3), 50.0);
}

TEST(ShortestPaths, PrefersFewerHopsOverBandwidth) {
  // Direct weak link vs two-hop strong detour: min-hop must win.
  EdgeNetwork net;
  for (int i = 0; i < 3; ++i) net.add_node({});
  net.add_link_with_rate(0, 2, 1.0);    // direct, weak
  net.add_link_with_rate(0, 1, 100.0);  // detour
  net.add_link_with_rate(1, 2, 100.0);
  ShortestPaths sp(net);
  EXPECT_EQ(sp.hops(0, 2), 1);
  EXPECT_EQ(sp.path_links(0, 2).size(), 1u);
}

TEST(ShortestPaths, ParallelLinksPathUsesBfsChosenLink) {
  // Two parallel links 0-1: the weak one is inserted first so a naive
  // "first incident link" lookup would disagree with the recorded
  // bottleneck/inverse-rate metrics.
  EdgeNetwork net;
  net.add_node({});
  net.add_node({});
  const LinkId weak = net.add_link_with_rate(0, 1, 2.0);
  const LinkId strong = net.add_link_with_rate(0, 1, 8.0);
  ShortestPaths sp(net);
  EXPECT_EQ(sp.hops(0, 1), 1);
  EXPECT_DOUBLE_EQ(sp.bottleneck_rate(0, 1), 8.0);
  EXPECT_NEAR(sp.inverse_rate_sum(0, 1), 1.0 / 8.0, 1e-12);
  const auto links = sp.path_links(0, 1);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0], strong);
  EXPECT_NE(links[0], weak);
  // The selected link's rate must reproduce the recorded path metrics.
  EXPECT_DOUBLE_EQ(net.link(links[0]).rate_gbps, sp.bottleneck_rate(0, 1));
}

TEST(ShortestPaths, ParallelLinksConsistentOnMultiHopPath) {
  // 0 =(3|30)= 1 -(20)- 2: the 0-1 leg has a weak-first parallel pair.
  EdgeNetwork net;
  for (int i = 0; i < 3; ++i) net.add_node({});
  net.add_link_with_rate(0, 1, 3.0);
  const LinkId strong = net.add_link_with_rate(0, 1, 30.0);
  const LinkId tail = net.add_link_with_rate(1, 2, 20.0);
  ShortestPaths sp(net);
  const auto links = sp.path_links(0, 2);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], strong);
  EXPECT_EQ(links[1], tail);
  EXPECT_DOUBLE_EQ(sp.bottleneck_rate(0, 2), 20.0);
  EXPECT_NEAR(sp.inverse_rate_sum(0, 2), 1.0 / 30.0 + 1.0 / 20.0, 1e-12);
}

TEST(ShortestPaths, ParallelDeadLinkDoesNotShadowAliveLink) {
  // A zero-capacity link is inserted before an alive parallel link. BFS must
  // skip the dead incidence: traversing it would record an infinite
  // inverse-rate on a path the routing layer believes exists.
  EdgeNetwork net;
  net.add_node({});
  net.add_node({});
  const LinkId dead = net.add_link_with_rate(0, 1, 0.0);
  const LinkId alive = net.add_link_with_rate(0, 1, 6.0);
  ShortestPaths sp(net);
  EXPECT_EQ(sp.hops(0, 1), 1);
  const auto links = sp.path_links(0, 1);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0], alive);
  EXPECT_NE(links[0], dead);
  EXPECT_DOUBLE_EQ(sp.bottleneck_rate(0, 1), 6.0);
  EXPECT_NEAR(sp.inverse_rate_sum(0, 1), 1.0 / 6.0, 1e-12);
}

TEST(ShortestPaths, DeadMinHopPathDoesNotShadowLongerAlivePath) {
  // Direct 0-2 link has zero rate; the only usable route is the two-hop
  // detour 0-1-2. Before dead links were skipped, BFS would report the
  // one-hop path and every transfer across it would cost +inf.
  EdgeNetwork net;
  for (int i = 0; i < 3; ++i) net.add_node({});
  net.add_link_with_rate(0, 2, 0.0);   // dead, min-hop
  net.add_link_with_rate(0, 1, 10.0);  // alive detour
  net.add_link_with_rate(1, 2, 10.0);
  ShortestPaths sp(net);
  EXPECT_EQ(sp.hops(0, 2), 2);
  const auto links = sp.path_links(0, 2);
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(net.link(links[0]).b, 1);
  EXPECT_DOUBLE_EQ(sp.bottleneck_rate(0, 2), 10.0);
  EXPECT_NEAR(sp.inverse_rate_sum(0, 2), 0.2, 1e-12);
}

TEST(ShortestPaths, AllDeadLinksMeansUnreachable) {
  // A node reachable only through zero-capacity links is unreachable: no
  // data can ever cross, so pretending a path exists hides the infeasibility.
  EdgeNetwork net;
  for (int i = 0; i < 3; ++i) net.add_node({});
  net.add_link_with_rate(0, 1, 4.0);
  net.add_link_with_rate(1, 2, 0.0);
  ShortestPaths sp(net);
  EXPECT_TRUE(sp.reachable(0, 1));
  EXPECT_FALSE(sp.reachable(0, 2));
  EXPECT_EQ(sp.hops(0, 2), ShortestPaths::unreachable());
  EXPECT_TRUE(sp.path_links(0, 2).empty());
}

TEST(ShortestPaths, SymmetricHops) {
  auto net = path_graph();
  ShortestPaths sp(net);
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      EXPECT_EQ(sp.hops(a, b), sp.hops(b, a));
    }
  }
}

TEST(ShortestPaths, BadIdsThrow) {
  auto net = path_graph();
  ShortestPaths sp(net);
  EXPECT_THROW(sp.hops(0, 9), std::out_of_range);
  EXPECT_THROW(sp.hops(-1, 0), std::out_of_range);
}

}  // namespace
}  // namespace socl::net
