// Tests for request-class aggregation (DESIGN.md §4g): exact-equality
// grouping, fingerprint/bucketing behaviour, identity with a plain
// reference aggregation, the expansion API, the replicate_requests
// population builder the scale benches rely on, and Scenario::set_requests'
// epoch and recycling contract.
#include "workload/request_classes.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/scenario.h"
#include "util/rng.h"

namespace socl::workload {
namespace {

UserRequest make_request(int id, net::NodeId attach,
                         std::vector<MsId> chain = {0, 1},
                         double deadline = 1e9) {
  UserRequest request;
  request.id = id;
  request.attach_node = attach;
  request.chain = std::move(chain);
  request.edge_data.assign(request.chain.size() - 1, 2.0);
  request.data_in = 1.0;
  request.data_out = 0.5;
  request.deadline = deadline;
  return request;
}

/// A plain reference aggregation: byte-wise FNV-1a fingerprints bucketed in
/// a std::unordered_map, classes in order of first appearance.
struct ReferenceClasses {
  std::vector<int> representative;
  std::vector<std::vector<int>> members;
  std::vector<double> weight;
  std::vector<int> class_of;
  std::vector<std::vector<int>> classes_using;
};

std::uint64_t reference_fingerprint(const UserRequest& request) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  const auto bits = [](double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof(out));
    return out;
  };
  mix(static_cast<std::uint64_t>(request.attach_node));
  mix(static_cast<std::uint64_t>(request.chain.size()));
  for (MsId m : request.chain) mix(static_cast<std::uint64_t>(m));
  for (double volume : request.edge_data) mix(bits(volume));
  mix(bits(request.data_in));
  mix(bits(request.data_out));
  mix(bits(request.deadline));
  return hash;
}

ReferenceClasses reference_classes(const std::vector<UserRequest>& requests) {
  ReferenceClasses out;
  out.class_of.assign(requests.size(), -1);
  std::unordered_map<std::uint64_t, std::vector<int>> buckets;
  for (const auto& request : requests) {
    auto& bucket = buckets[reference_fingerprint(request)];
    int cls = -1;
    for (int candidate : bucket) {
      const auto& rep = requests[static_cast<std::size_t>(
          out.representative[static_cast<std::size_t>(candidate)])];
      if (same_request_class(rep, request)) {
        cls = candidate;
        break;
      }
    }
    if (cls < 0) {
      cls = static_cast<int>(out.representative.size());
      out.representative.push_back(request.id);
      out.members.emplace_back();
      out.weight.push_back(0.0);
      bucket.push_back(cls);
    }
    out.members[static_cast<std::size_t>(cls)].push_back(request.id);
    out.weight[static_cast<std::size_t>(cls)] += 1.0;
    out.class_of[static_cast<std::size_t>(request.id)] = cls;
  }
  for (std::size_t c = 0; c < out.representative.size(); ++c) {
    for (MsId m : requests[static_cast<std::size_t>(out.representative[c])]
                      .chain) {
      const auto idx = static_cast<std::size_t>(m);
      if (idx >= out.classes_using.size()) out.classes_using.resize(idx + 1);
      auto& list = out.classes_using[idx];
      if (list.empty() || list.back() != static_cast<int>(c)) {
        list.push_back(static_cast<int>(c));
      }
    }
  }
  return out;
}

void expect_matches_reference(const std::vector<UserRequest>& requests) {
  const ReferenceClasses expected = reference_classes(requests);
  const RequestClasses classes(requests);
  ASSERT_EQ(classes.num_classes(),
            static_cast<int>(expected.representative.size()));
  EXPECT_EQ(classes.num_users(), static_cast<int>(requests.size()));
  for (int c = 0; c < classes.num_classes(); ++c) {
    const auto idx = static_cast<std::size_t>(c);
    const RequestClass& cls = classes.cls(c);
    ASSERT_EQ(cls.representative, expected.representative[idx]) << c;
    ASSERT_EQ(cls.members, expected.members[idx]) << c;
    ASSERT_EQ(cls.weight, expected.weight[idx]) << c;
  }
  for (std::size_t h = 0; h < requests.size(); ++h) {
    ASSERT_EQ(classes.class_of(static_cast<int>(h)), expected.class_of[h]);
  }
  // One id past the indexed range must resolve to the empty list too.
  for (std::size_t m = 0; m <= expected.classes_using.size(); ++m) {
    const std::vector<int> none;
    const auto& want =
        m < expected.classes_using.size() ? expected.classes_using[m] : none;
    ASSERT_EQ(classes.classes_using(static_cast<MsId>(m)), want) << m;
  }
}

/// `users` requests drawn from `templates` random demand tuples (chains of
/// 1-6 services out of 8, repeats allowed, small value sets for the data
/// volumes and deadlines) on 16 attach nodes. Templates 0 and 1 are the
/// chains {0} and {0, 0} with equal payloads and deadline.
std::vector<UserRequest> random_population(int users, int templates,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  const double volumes[] = {1.0, 2.5, 4.0};
  const double deadlines[] = {1e9, 0.5, 2.0};
  std::vector<UserRequest> shapes;
  for (int t = 0; t < templates; ++t) {
    UserRequest shape;
    if (t < 2) {
      shape.chain.assign(static_cast<std::size_t>(t) + 1, 0);
    } else {
      const auto length = static_cast<std::size_t>(rng.uniform_int(1, 6));
      for (std::size_t i = 0; i < length; ++i) {
        shape.chain.push_back(static_cast<MsId>(rng.index(8)));
      }
      shape.data_in = volumes[rng.index(3)];
      shape.deadline = deadlines[rng.index(3)];
    }
    for (std::size_t e = 1; e < shape.chain.size(); ++e) {
      shape.edge_data.push_back(volumes[rng.index(3)]);
    }
    shapes.push_back(std::move(shape));
  }
  std::vector<UserRequest> population;
  for (int h = 0; h < users; ++h) {
    UserRequest request = shapes[rng.index(shapes.size())];
    request.id = h;
    request.attach_node = static_cast<net::NodeId>(rng.index(16));
    population.push_back(std::move(request));
  }
  return population;
}

TEST(RequestClasses, IdenticalRequestsCollapseToOneClass) {
  std::vector<UserRequest> requests;
  for (int h = 0; h < 5; ++h) requests.push_back(make_request(h, 3));
  const RequestClasses classes(requests);
  ASSERT_EQ(classes.num_classes(), 1);
  EXPECT_EQ(classes.num_users(), 5);
  const auto& cls = classes.cls(0);
  EXPECT_EQ(cls.representative, 0);
  EXPECT_DOUBLE_EQ(cls.weight, 5.0);
  EXPECT_EQ(cls.size(), 5);
  EXPECT_EQ(cls.members, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(classes.compression_ratio(), 5.0);
  EXPECT_DOUBLE_EQ(classes.total_weight(), 5.0);
}

TEST(RequestClasses, IdIsNotPartOfTheClassKey) {
  const auto a = make_request(0, 2);
  const auto b = make_request(7, 2);
  EXPECT_TRUE(same_request_class(a, b));
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));
}

TEST(RequestClasses, EveryDemandFieldSplitsClasses) {
  const auto base = make_request(0, 2);
  auto other_attach = base;
  other_attach.attach_node = 3;
  auto other_chain = base;
  other_chain.chain = {1, 0};
  auto other_edge = base;
  other_edge.edge_data[0] = 3.0;
  auto other_in = base;
  other_in.data_in = 9.0;
  auto other_out = base;
  other_out.data_out = 9.0;
  auto other_deadline = base;
  other_deadline.deadline = 0.25;
  for (const auto* variant : {&other_attach, &other_chain, &other_edge,
                              &other_in, &other_out, &other_deadline}) {
    EXPECT_FALSE(same_request_class(base, *variant));
  }

  std::vector<UserRequest> requests{base,       other_attach, other_chain,
                                    other_edge, other_in,     other_out,
                                    other_deadline};
  for (std::size_t h = 0; h < requests.size(); ++h) {
    requests[h].id = static_cast<int>(h);
  }
  const RequestClasses classes(requests);
  EXPECT_EQ(classes.num_classes(), 7);
  EXPECT_DOUBLE_EQ(classes.compression_ratio(), 1.0);
}

TEST(RequestClasses, ChainLengthPrefixDoesNotCollide) {
  // {0} vs {0, 0}: a fingerprint that mixed only the chain ids (not the
  // length) would alias these; exact equality must keep them apart anyway.
  auto shorter = make_request(0, 1, {0});
  auto longer = make_request(1, 1, {0, 0});
  EXPECT_FALSE(same_request_class(shorter, longer));
  const RequestClasses classes({shorter, longer});
  EXPECT_EQ(classes.num_classes(), 2);
}

TEST(RequestClasses, ClassesOrderedByFirstAppearance) {
  // Interleaved: B A B A A. Classes must come out [B, A] with the lowest-id
  // member as representative.
  std::vector<UserRequest> requests{
      make_request(0, 5), make_request(1, 2), make_request(2, 5),
      make_request(3, 2), make_request(4, 2)};
  const RequestClasses classes(requests);
  ASSERT_EQ(classes.num_classes(), 2);
  EXPECT_EQ(classes.cls(0).representative, 0);
  EXPECT_EQ(classes.cls(0).members, (std::vector<int>{0, 2}));
  EXPECT_EQ(classes.cls(1).representative, 1);
  EXPECT_EQ(classes.cls(1).members, (std::vector<int>{1, 3, 4}));
  // The expansion map inverts the membership lists.
  EXPECT_EQ(classes.class_of(0), 0);
  EXPECT_EQ(classes.class_of(1), 1);
  EXPECT_EQ(classes.class_of(2), 0);
  EXPECT_EQ(classes.class_of(3), 1);
  EXPECT_EQ(classes.class_of(4), 1);
}

TEST(RequestClasses, MatchesReferenceAggregation) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_reference(random_population(0, 300, seed));
    expect_matches_reference(random_population(1, 300, seed));
    auto population = random_population(20'000, 300, seed);
    // Enough classes that the table grows several times past its start.
    EXPECT_GE(RequestClasses(population).num_classes(), 600);
    expect_matches_reference(population);
    // Ids need not arrive in order: classes follow input order.
    util::Rng(seed).shuffle(population);
    expect_matches_reference(population);
  }
}

TEST(RequestClasses, LargeNonDenseIdsThrow) {
  auto gap = random_population(20'000, 300, 4);
  gap.back().id = 20'000;
  EXPECT_THROW(RequestClasses{gap}, std::invalid_argument);
  auto dup = random_population(20'000, 300, 4);
  dup.back().id = 0;
  EXPECT_THROW(RequestClasses{dup}, std::invalid_argument);
}

TEST(RequestClasses, NonDenseIdsThrow) {
  std::vector<UserRequest> gap{make_request(0, 1), make_request(2, 1)};
  EXPECT_THROW(RequestClasses{gap}, std::invalid_argument);
  std::vector<UserRequest> dup{make_request(0, 1), make_request(0, 2)};
  EXPECT_THROW(RequestClasses{dup}, std::invalid_argument);
}

TEST(RequestClasses, EmptyWorkload) {
  const RequestClasses classes((std::vector<UserRequest>{}));
  EXPECT_EQ(classes.num_classes(), 0);
  EXPECT_EQ(classes.num_users(), 0);
  EXPECT_DOUBLE_EQ(classes.compression_ratio(), 1.0);
}

TEST(RequestClasses, ReplicateRequestsBoundsClassCount) {
  std::vector<UserRequest> templates{make_request(0, 0), make_request(1, 1),
                                     make_request(2, 2, {1, 0})};
  const auto population = replicate_requests(templates, 10);
  ASSERT_EQ(population.size(), 10u);
  for (int h = 0; h < 10; ++h) {
    EXPECT_EQ(population[static_cast<std::size_t>(h)].id, h);  // fresh dense
    EXPECT_TRUE(same_request_class(population[static_cast<std::size_t>(h)],
                                   templates[static_cast<std::size_t>(h) %
                                             templates.size()]));
  }
  const RequestClasses classes(population);
  EXPECT_EQ(classes.num_classes(), 3);
  // Round-robin over 3 templates at 10 users: weights 4, 3, 3.
  EXPECT_DOUBLE_EQ(classes.cls(0).weight, 4.0);
  EXPECT_DOUBLE_EQ(classes.cls(1).weight, 3.0);
  EXPECT_DOUBLE_EQ(classes.cls(2).weight, 3.0);
}

TEST(RequestClasses, ScenarioExposesClassesAndEpoch) {
  core::ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 8;
  auto scenario = core::make_scenario(config, 21);
  const auto epoch = scenario.workload_epoch();
  EXPECT_EQ(scenario.classes().num_users(), scenario.num_users());
  EXPECT_LE(scenario.classes().num_classes(), scenario.num_users());

  scenario.set_requests(
      replicate_requests(scenario.requests(), 4 * scenario.num_users()));
  EXPECT_GT(scenario.workload_epoch(), epoch);
  EXPECT_EQ(scenario.classes().num_users(), 32);
  EXPECT_LE(scenario.classes().num_classes(), 8);
  EXPECT_GE(scenario.classes().compression_ratio(), 4.0);
}

TEST(RequestClasses, UnchangedWorkloadKeepsTheEpoch) {
  // Epoch hygiene (the serving loop's carried-slot fast path): replacing
  // the requests with an element-wise identical workload must not bump the
  // workload epoch — per-class route caches keyed on it stay valid and no
  // reindex runs.
  core::ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 12;
  auto scenario = core::make_scenario(config, 33);
  const auto epoch = scenario.workload_epoch();

  scenario.set_requests(scenario.requests());  // identical copy
  EXPECT_EQ(scenario.workload_epoch(), epoch);

  // A mobility slot where nobody moved is the same no-op.
  auto requests = scenario.requests();
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch);
}

/// Field-for-field equality of two workloads (ids included).
void expect_same_workload(const std::vector<UserRequest>& a,
                          const std::vector<UserRequest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t h = 0; h < a.size(); ++h) {
    EXPECT_EQ(a[h].id, b[h].id);
    EXPECT_TRUE(same_request_class(a[h], b[h])) << "request " << h;
  }
}

TEST(RequestClasses, SetRequestsReturnsTheReplacedWorkload) {
  core::ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 12;
  auto scenario = core::make_scenario(config, 36);
  const auto original = scenario.requests();
  auto epoch = scenario.workload_epoch();

  // Unchanged path: the epoch holds and the old vector comes back.
  auto replaced = scenario.set_requests(scenario.requests());
  EXPECT_EQ(scenario.workload_epoch(), epoch);
  expect_same_workload(replaced, original);

  // Changed path: the epoch bumps and the pre-change workload comes back.
  auto moved = original;
  moved[2].attach_node = (moved[2].attach_node + 1) % 6;
  moved[5].chain.push_back(moved[5].chain.front());
  moved[5].edge_data.push_back(3.0);
  replaced = scenario.set_requests(moved);
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);
  expect_same_workload(replaced, original);
  expect_same_workload(scenario.requests(), moved);

  // Recycling the returned buffer by copy-assignment leaves nothing of the
  // old contents behind.
  epoch = scenario.workload_epoch();
  replaced = original;
  replaced = scenario.set_requests(std::move(replaced));
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);
  expect_same_workload(replaced, moved);
  expect_same_workload(scenario.requests(), original);
}

TEST(RequestClasses, SingleMovedUserBumpsTheEpoch) {
  core::ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 12;
  auto scenario = core::make_scenario(config, 34);
  const auto epoch = scenario.workload_epoch();

  auto requests = scenario.requests();
  const net::NodeId moved_to = (requests[0].attach_node + 1) % 6;
  requests[0].attach_node = moved_to;
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);
  // The rebuilt indices reflect the move.
  EXPECT_EQ(scenario.classes().num_users(), 12);
  const auto& at_new_node = scenario.users_at(moved_to);
  EXPECT_NE(std::find(at_new_node.begin(), at_new_node.end(), 0),
            at_new_node.end());
}

TEST(RequestClasses, AnyDemandTupleChangeBumpsTheEpoch) {
  core::ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 8;
  auto scenario = core::make_scenario(config, 35);

  // Deadline is part of the Eq. 2/4 tuple even though it does not affect
  // the demand indices — a deadline-only change must still reindex.
  auto epoch = scenario.workload_epoch();
  auto requests = scenario.requests();
  requests[3].deadline += 1.0;
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);

  // Payload changes count too.
  epoch = scenario.workload_epoch();
  requests = scenario.requests();
  requests[0].data_in += 0.5;
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);

  // A different length is trivially a change.
  epoch = scenario.workload_epoch();
  requests = scenario.requests();
  requests.pop_back();
  for (std::size_t h = 0; h < requests.size(); ++h) {
    requests[h].id = static_cast<int>(h);
  }
  scenario.set_requests(std::move(requests));
  EXPECT_EQ(scenario.workload_epoch(), epoch + 1);
}

}  // namespace
}  // namespace socl::workload
