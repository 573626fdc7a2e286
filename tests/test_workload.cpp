// Tests for the microservice model, catalog, request generator, and
// mobility model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/topology.h"
#include "workload/catalog.h"
#include "workload/mobility.h"
#include "workload/request_gen.h"

namespace socl::workload {
namespace {

TEST(UserRequest, PositionOf) {
  UserRequest request;
  request.chain = {3, 1, 4};
  EXPECT_EQ(request.position_of(3), 0);
  EXPECT_EQ(request.position_of(4), 2);
  EXPECT_EQ(request.position_of(9), -1);
}

UserRequest valid_request() {
  UserRequest request;
  request.attach_node = 0;
  request.chain = {0, 1};
  request.edge_data = {5.0};
  request.data_in = 2.0;
  request.data_out = 1.0;
  request.deadline = 10.0;
  return request;
}

TEST(UserRequestValidate, AcceptsWellFormed) {
  EXPECT_NO_THROW(validate(valid_request(), 3));
}

TEST(UserRequestValidate, RejectsEmptyChain) {
  auto request = valid_request();
  request.chain.clear();
  request.edge_data.clear();
  EXPECT_THROW(validate(request, 3), std::invalid_argument);
}

TEST(UserRequestValidate, RejectsEdgeDataMismatch) {
  auto request = valid_request();
  request.edge_data.push_back(1.0);
  EXPECT_THROW(validate(request, 3), std::invalid_argument);
}

TEST(UserRequestValidate, AcceptsRepeatedMicroservice) {
  // Chains may revisit a microservice (e.g. auth → pay → auth); the layered
  // routing DP handles repeats, so validation must not reject them.
  auto request = valid_request();
  request.chain = {1, 1};
  EXPECT_NO_THROW(validate(request, 3));
}

TEST(UserRequest, PositionOfReturnsFirstOccurrence) {
  auto request = valid_request();
  request.chain = {2, 1, 2};
  request.edge_data = {1.0, 1.0};
  EXPECT_EQ(request.position_of(2), 0);
  EXPECT_EQ(request.position_of(1), 1);
  EXPECT_EQ(request.position_of(0), -1);
}

TEST(UserRequestValidate, RejectsOutOfRangeId) {
  auto request = valid_request();
  request.chain = {0, 7};
  EXPECT_THROW(validate(request, 3), std::invalid_argument);
}

TEST(UserRequestValidate, RejectsNonPositiveData) {
  auto request = valid_request();
  request.edge_data[0] = 0.0;
  EXPECT_THROW(validate(request, 3), std::invalid_argument);
  request = valid_request();
  request.data_in = -1.0;
  EXPECT_THROW(validate(request, 3), std::invalid_argument);
  request = valid_request();
  request.deadline = 0.0;
  EXPECT_THROW(validate(request, 3), std::invalid_argument);
}

TEST(Catalog, EshopHasTwelveServicesAndValidTemplates) {
  const auto& catalog = eshop_catalog();
  EXPECT_EQ(catalog.num_microservices(), 12);
  EXPECT_FALSE(catalog.templates().empty());
  for (const auto& tpl : catalog.templates()) {
    std::set<MsId> seen;
    for (MsId m : tpl.chain) {
      EXPECT_GE(m, 0);
      EXPECT_LT(m, catalog.num_microservices());
      EXPECT_TRUE(seen.insert(m).second) << "repeated id in " << tpl.name;
    }
  }
}

TEST(Catalog, ComputeRequirementsInPaperRange) {
  for (const auto& ms : eshop_catalog().microservices()) {
    EXPECT_GE(ms.compute_gflop, 1.0) << ms.name;
    EXPECT_LE(ms.compute_gflop, 3.0) << ms.name;
  }
}

TEST(Catalog, IdsAreDense) {
  const auto& catalog = eshop_catalog();
  for (int i = 0; i < catalog.num_microservices(); ++i) {
    EXPECT_EQ(catalog.microservice(i).id, i);
  }
}

TEST(Catalog, TotalSingleInstanceCost) {
  const auto& catalog = tiny_catalog();
  EXPECT_DOUBLE_EQ(catalog.total_single_instance_cost(), 750.0);
}

TEST(RequestGen, GeneratesRequestedCount) {
  const auto net = net::make_topology(8, 1);
  RequestGenConfig config;
  config.num_users = 25;
  const auto requests = generate_requests(net, eshop_catalog(), config, 2);
  EXPECT_EQ(requests.size(), 25u);
}

TEST(RequestGen, AllRequestsValidAndAttached) {
  const auto net = net::make_topology(8, 1);
  RequestGenConfig config;
  config.num_users = 60;
  const auto requests = generate_requests(net, eshop_catalog(), config, 3);
  for (const auto& request : requests) {
    EXPECT_NO_THROW(validate(request, eshop_catalog().num_microservices()));
    EXPECT_GE(request.attach_node, 0);
    EXPECT_LT(static_cast<std::size_t>(request.attach_node), net.num_nodes());
  }
}

TEST(RequestGen, DataVolumesWithinConfiguredRange) {
  const auto net = net::make_topology(8, 1);
  RequestGenConfig config;
  config.num_users = 60;
  const auto requests = generate_requests(net, eshop_catalog(), config, 4);
  for (const auto& request : requests) {
    for (double r : request.edge_data) {
      EXPECT_GE(r, config.data_min);
      EXPECT_LE(r, config.data_max);
    }
  }
}

TEST(RequestGen, DeterministicInSeed) {
  const auto net = net::make_topology(8, 1);
  RequestGenConfig config;
  config.num_users = 10;
  const auto a = generate_requests(net, eshop_catalog(), config, 5);
  const auto b = generate_requests(net, eshop_catalog(), config, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].attach_node, b[i].attach_node);
    EXPECT_EQ(a[i].chain, b[i].chain);
    EXPECT_EQ(a[i].edge_data, b[i].edge_data);
  }
}

TEST(RequestGen, ZeroUsersIsEmpty) {
  const auto net = net::make_topology(4, 1);
  RequestGenConfig config;
  config.num_users = 0;
  EXPECT_TRUE(generate_requests(net, eshop_catalog(), config, 6).empty());
}

TEST(RequestGen, HotspotsConcentrateAttachment) {
  const auto net = net::make_topology(10, 1);
  RequestGenConfig config;
  config.num_users = 500;
  config.hotspot_fraction = 0.2;
  config.hotspot_weight = 10.0;
  const auto requests = generate_requests(net, eshop_catalog(), config, 7);
  std::vector<int> counts(net.num_nodes(), 0);
  for (const auto& request : requests) ++counts[request.attach_node];
  std::sort(counts.begin(), counts.end());
  // The busiest two (hotspot) nodes should hold well over the uniform share.
  const int top2 = counts[counts.size() - 1] + counts[counts.size() - 2];
  EXPECT_GT(top2, 500 / 5);
}

TEST(RequestGen, DeadlinesScaleWithSlack) {
  const auto net = net::make_topology(8, 1);
  RequestGenConfig tight;
  tight.num_users = 20;
  tight.deadline_slack = 2.0;
  RequestGenConfig loose = tight;
  loose.deadline_slack = 8.0;
  const auto a = generate_requests(net, eshop_catalog(), tight, 8);
  const auto b = generate_requests(net, eshop_catalog(), loose, 8);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(b[i].deadline / a[i].deadline, 4.0, 1e-9);
  }
}

TEST(Mobility, StepKeepsAttachNodesValid) {
  const auto net = net::make_topology(8, 1);
  RequestGenConfig config;
  config.num_users = 30;
  auto requests = generate_requests(net, eshop_catalog(), config, 9);
  util::Rng rng(10);
  util::Rng wrng(11);
  const auto weights = attachment_weights(net.num_nodes(), config, wrng);
  MobilityConfig mobility;
  mobility.move_prob = 1.0;
  for (int step = 0; step < 20; ++step) {
    mobility_step(net, requests, weights, mobility, rng);
    for (const auto& request : requests) {
      EXPECT_GE(request.attach_node, 0);
      EXPECT_LT(static_cast<std::size_t>(request.attach_node),
                net.num_nodes());
    }
  }
}

TEST(Mobility, ZeroMoveProbabilityFreezesUsers) {
  const auto net = net::make_topology(8, 1);
  RequestGenConfig config;
  config.num_users = 10;
  auto requests = generate_requests(net, eshop_catalog(), config, 12);
  const auto before = requests;
  util::Rng rng(13);
  util::Rng wrng(14);
  const auto weights = attachment_weights(net.num_nodes(), config, wrng);
  MobilityConfig mobility;
  mobility.move_prob = 0.0;
  mobility_step(net, requests, weights, mobility, rng);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].attach_node, before[i].attach_node);
  }
}

TEST(Mobility, EventuallyMovesUsers) {
  const auto net = net::make_topology(8, 1);
  RequestGenConfig config;
  config.num_users = 30;
  auto requests = generate_requests(net, eshop_catalog(), config, 15);
  const auto before = requests;
  util::Rng rng(16);
  util::Rng wrng(17);
  const auto weights = attachment_weights(net.num_nodes(), config, wrng);
  MobilityConfig mobility;
  mobility.move_prob = 1.0;
  mobility_step(net, requests, weights, mobility, rng);
  int moved = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].attach_node != before[i].attach_node) ++moved;
  }
  EXPECT_GT(moved, 10);
}

TEST(Mobility, StepsAreDeterministic) {
  const auto net = net::make_topology(6, 1);
  RequestGenConfig config;
  config.num_users = 5;
  const auto requests = generate_requests(net, eshop_catalog(), config, 18);
  util::Rng wrng(19);
  const auto weights = attachment_weights(net.num_nodes(), config, wrng);
  auto a = requests;
  auto b = requests;
  util::Rng rng_a(20), rng_b(20);
  for (int slot = 0; slot < 10; ++slot) {
    mobility_step(net, a, weights, {}, rng_a);
    mobility_step(net, b, weights, {}, rng_b);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].attach_node, b[i].attach_node) << "slot " << slot;
    }
  }
}

TEST(Mobility, WeightSizeMismatchThrows) {
  const auto net = net::make_topology(4, 1);
  std::vector<UserRequest> requests;
  util::Rng rng(21);
  const std::vector<double> weights(2, 1.0);  // wrong size
  EXPECT_THROW(mobility_step(net, requests, weights, {}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace socl::workload
