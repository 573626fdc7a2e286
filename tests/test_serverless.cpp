// Tests for the serverless container-runtime simulator: arrival streams
// (against a per-draw Poisson reference, serial and block-parallel),
// event-ordering determinism and tie order, the sorted-stream and all-user
// assignment checks, cold-start accounting conservation, keep-alive
// capacity reclamation, evaluator reproduction in the zero-overhead
// configuration, and the scaling policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/partition.h"
#include "core/preprovision.h"
#include "core/routing.h"
#include "net/topology.h"
#include "serverless/arrivals.h"
#include "serverless/policy.h"
#include "serverless/runtime.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace socl::serverless {
namespace {

using core::MsId;
using core::NodeId;

core::ScenarioConfig base_config(int nodes = 6, int users = 12) {
  core::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  return config;
}

/// Demand-following placement + optimal routing, like the testbed tests use.
struct Fixture {
  core::Scenario scenario;
  core::Placement placement;
  core::Assignment assignment;

  explicit Fixture(std::uint64_t seed, int nodes = 6, int users = 12)
      : scenario(core::make_scenario(base_config(nodes, users), seed)),
        placement(scenario),
        assignment(scenario) {
    for (MsId m = 0; m < scenario.num_microservices(); ++m) {
      for (const NodeId k : scenario.demand_nodes(m)) placement.deploy(m, k);
      if (!scenario.demand_nodes(m).empty()) placement.deploy(m, 0);
    }
    const core::ChainRouter router(scenario);
    assignment = *router.route_all(placement);
  }
};

ArrivalConfig default_arrivals() {
  ArrivalConfig config;
  config.horizon_s = 20.0;
  config.mean_rate = 0.1;
  config.burstiness = 1.5;
  config.bins = 8;
  config.seed = 5;
  return config;
}

TEST(Arrivals, DeterministicSortedAndSequenced) {
  const auto a = generate_arrivals(10, default_arrivals());
  const auto b = generate_arrivals(10, default_arrivals());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  std::vector<int> next_seq(10, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].seq, b[i].seq);
    if (i > 0) {
      EXPECT_GE(a[i].time_s, a[i - 1].time_s);
    }
    EXPECT_GE(a[i].time_s, 0.0);
    EXPECT_LE(a[i].time_s, default_arrivals().horizon_s);
    EXPECT_EQ(a[i].seq, next_seq[static_cast<std::size_t>(a[i].user)]++);
  }
}

TEST(Arrivals, PerUserStreamIndependentOfPopulation) {
  // Counter-based streams: user u's arrivals must not change when more
  // users join the scenario.
  const auto small = generate_arrivals(4, default_arrivals());
  const auto large = generate_arrivals(12, default_arrivals());
  std::vector<Arrival> small_u, large_u;
  for (const auto& arrival : small) {
    if (arrival.user < 4) small_u.push_back(arrival);
  }
  for (const auto& arrival : large) {
    if (arrival.user < 4) large_u.push_back(arrival);
  }
  ASSERT_EQ(small_u.size(), large_u.size());
  for (std::size_t i = 0; i < small_u.size(); ++i) {
    EXPECT_DOUBLE_EQ(small_u[i].time_s, large_u[i].time_s);
    EXPECT_EQ(small_u[i].user, large_u[i].user);
    EXPECT_EQ(small_u[i].seq, large_u[i].seq);
  }
}

/// generate_arrivals drawn the direct way, as the oracle for its per-bin
/// threshold reuse: one util::Rng::poisson call per user and bin, on the
/// same per-user stream.
std::vector<Arrival> reference_arrivals(int num_users,
                                        const ArrivalConfig& config) {
  const auto profile = arrival_profile(config);
  const double bin_len = config.horizon_s / static_cast<double>(config.bins);
  std::vector<Arrival> all;
  for (int u = 0; u < num_users; ++u) {
    const auto stream = static_cast<std::uint64_t>(u);
    util::Rng rng(config.seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1)));
    std::vector<double> times;
    for (int b = 0; b < config.bins; ++b) {
      const auto count = rng.poisson(config.mean_rate * bin_len *
                                     profile[static_cast<std::size_t>(b)]);
      for (std::uint64_t i = 0; i < count; ++i) {
        times.push_back(static_cast<double>(b) * bin_len +
                        rng.uniform(0.0, bin_len));
      }
    }
    std::sort(times.begin(), times.end());
    for (std::size_t i = 0; i < times.size(); ++i) {
      all.push_back({times[i], u, static_cast<int>(i)});
    }
  }
  std::sort(all.begin(), all.end(), [](const Arrival& a, const Arrival& b) {
    if (a.time_s != b.time_s) return a.time_s < b.time_s;
    if (a.user != b.user) return a.user < b.user;
    return a.seq < b.seq;
  });
  return all;
}

void expect_bit_equal(const std::vector<Arrival>& got,
                      const std::vector<Arrival>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].time_s),
              std::bit_cast<std::uint64_t>(want[i].time_s))
        << "arrival " << i;
    ASSERT_EQ(got[i].user, want[i].user) << "arrival " << i;
    ASSERT_EQ(got[i].seq, want[i].seq) << "arrival " << i;
  }
}

std::string describe(int num_users, const ArrivalConfig& config) {
  return "users " + std::to_string(num_users) + " bins " +
         std::to_string(config.bins) + " burstiness " +
         std::to_string(config.burstiness) + " rate " +
         std::to_string(config.mean_rate);
}

void expect_reference_arrivals(int num_users, const ArrivalConfig& config) {
  SCOPED_TRACE(describe(num_users, config));
  expect_bit_equal(generate_arrivals(num_users, config),
                   reference_arrivals(num_users, config));
}

TEST(Arrivals, MatchesPerDrawPoissonReference) {
  for (const int users : {0, 1, 2000}) {
    for (const int bins : {1, 40}) {
      for (const double burstiness : {0.0, 3.0}) {
        ArrivalConfig config;
        config.horizon_s = 30.0;
        config.bins = bins;
        config.burstiness = burstiness;
        config.seed = 9;
        // serving_day's per-bin means (about 2e-3), and no arrivals at all.
        for (const double rate : {3e-3, 0.0}) {
          config.mean_rate = rate;
          expect_reference_arrivals(users, config);
        }
        // Per-bin means around 30: the flat profile sits exactly on the
        // normal-approximation cut, the bursty one straddles it, so Knuth
        // draws interleave with normal draws (which cache a second variate
        // in the Rng).
        config.horizon_s = 15.0 * bins;
        config.mean_rate = 2.0;
        expect_reference_arrivals(std::min(users, 20), config);
      }
    }
  }
  ArrivalConfig negative = default_arrivals();
  negative.mean_rate = -1.0;
  EXPECT_THROW(generate_arrivals(1, negative), std::invalid_argument);
}

TEST(Arrivals, PooledDrawMatchesReferenceAtBlockEdges) {
  // Block-parallel draws join per-block streams in user order before the
  // final sort, so the stream must not depend on the pool or on where the
  // block edges fall.
  constexpr int kBlock = kArrivalBlockUsers;
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const int workers : {1, 2, 3}) {
    pools.push_back(
        std::make_unique<util::ThreadPool>(static_cast<std::size_t>(workers)));
  }
  ArrivalConfig serving_day;  // per-bin means around 2e-3: Knuth only
  serving_day.horizon_s = 30.0;
  serving_day.bins = 40;
  serving_day.mean_rate = 3e-3;
  serving_day.seed = 9;
  ArrivalConfig mixed = serving_day;  // means straddle the normal cut of 30
  mixed.bins = 2;
  mixed.horizon_s = 15.0 * mixed.bins;
  mixed.mean_rate = 2.0;
  mixed.burstiness = 3.0;
  const auto mixed_profile = arrival_profile(mixed);  // bin means: 30·profile
  ASSERT_LT(*std::min_element(mixed_profile.begin(), mixed_profile.end()), 1.0);
  ASSERT_GT(*std::max_element(mixed_profile.begin(), mixed_profile.end()), 1.0);
  for (const ArrivalConfig& config : {serving_day, mixed}) {
    for (const int users :
         {0, 1, kBlock - 1, kBlock, kBlock + 1, 3 * kBlock + 5}) {
      SCOPED_TRACE(describe(users, config));
      const auto want = reference_arrivals(users, config);
      expect_bit_equal(generate_arrivals(users, config), want);
      for (const auto& pool : pools) {
        SCOPED_TRACE("workers " + std::to_string(pool->size()));
        expect_bit_equal(generate_arrivals(users, config, pool.get()), want);
      }
    }
  }
}

TEST(Arrivals, BurstinessWidensProfileSpread) {
  ArrivalConfig flat = default_arrivals();
  flat.burstiness = 0.0;
  ArrivalConfig bursty = default_arrivals();
  bursty.burstiness = 3.0;
  const auto flat_profile = arrival_profile(flat);
  const auto bursty_profile = arrival_profile(bursty);
  double flat_spread = 0.0, bursty_spread = 0.0;
  for (std::size_t b = 0; b < flat_profile.size(); ++b) {
    flat_spread = std::max(flat_spread, std::abs(flat_profile[b] - 1.0));
    bursty_spread = std::max(bursty_spread, std::abs(bursty_profile[b] - 1.0));
  }
  EXPECT_NEAR(flat_spread, 0.0, 1e-12);
  EXPECT_GT(bursty_spread, 0.0);
}

TEST(Runtime, EventLogIdenticalAcrossRunsAndThreadCounts) {
  const Fixture fx(21);
  const auto arrivals = generate_arrivals(fx.scenario.num_users(),
                                          default_arrivals());
  ServerlessConfig config;
  config.proc_jitter_sigma = 0.1;
  config.keep_alive_sigma = 0.2;

  std::vector<std::vector<EventRecord>> logs;
  std::vector<RuntimeMetrics> runs;
  const auto run = [&](util::ThreadPool* pool) {
    const ServerlessRuntime runtime(fx.scenario, config, pool);
    std::vector<EventRecord> log;
    runs.push_back(runtime.run(fx.placement, fx.assignment, arrivals,
                               ReactivePolicy(), 77, nullptr, &log));
    logs.push_back(std::move(log));
  };
  run(nullptr);
  run(nullptr);
  // Borrowed pools, as a serving loop lends its long-lived one: each is
  // reused across runs, and 0 means hardware concurrency.
  util::ThreadPool four(4);
  util::ThreadPool hardware(0);
  run(&four);
  run(&hardware);
  run(&four);
  for (std::size_t i = 1; i < logs.size(); ++i) {
    EXPECT_EQ(logs[0], logs[i]) << "run " << i;
    ASSERT_EQ(runs[0].requests.size(), runs[i].requests.size());
    for (std::size_t r = 0; r < runs[0].requests.size(); ++r) {
      EXPECT_DOUBLE_EQ(runs[0].requests[r].finish_s,
                       runs[i].requests[r].finish_s);
      EXPECT_DOUBLE_EQ(runs[0].requests[r].cold_s,
                       runs[i].requests[r].cold_s);
    }
  }
}

TEST(Runtime, ArrivalTiesBreakInHeapPushOrder) {
  // The loop merges the arrival stream with its event heap; an arrival keeps
  // the push order it had when arrivals were heaped: after the pool events
  // of window open, before every later event. With a 1 s keep-alive, the
  // warm containers' expiries, the arrival and the first policy tick all
  // fall at t = 1 s.
  const Fixture fx(30);
  ServerlessConfig config;
  config.keep_alive_s = 1.0;
  config.keep_alive_sigma = 0.0;
  config.policy_tick_s = 1.0;
  const ServerlessRuntime runtime(fx.scenario, config);
  const std::vector<Arrival> arrivals = {{1.0, 0, 0}};
  std::vector<EventRecord> log;
  runtime.run(fx.placement, fx.assignment, arrivals, FixedPoolPolicy(1), 5,
              nullptr, &log);

  const auto position = [&](int kind) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i].kind == kind && log[i].time_s == 1.0) at.push_back(i);
    }
    return at;
  };
  const auto expiries = position(4);  // kContainerExpire
  const auto arrival = position(0);   // kArrival
  const auto ticks = position(5);     // kPolicyTick
  ASSERT_FALSE(expiries.empty());
  ASSERT_EQ(arrival.size(), 1u);
  ASSERT_EQ(ticks.size(), 1u);
  EXPECT_LT(expiries.back(), arrival[0]);
  EXPECT_LT(arrival[0], ticks[0]);
}

TEST(Runtime, RejectsUnsortedArrivals) {
  // An unsorted stream would be merged out of order and would lose the
  // policy ticks after its last element.
  const Fixture fx(31);
  const ServerlessRuntime runtime(fx.scenario, ServerlessConfig{});
  const std::vector<Arrival> ties = {{1.0, 1, 0}, {1.0, 0, 0}};
  EXPECT_NO_THROW(
      runtime.run(fx.placement, fx.assignment, ties, ReactivePolicy(), 5));
  const std::vector<Arrival> unsorted = {{2.0, 0, 0}, {1.0, 1, 0}};
  EXPECT_THROW(
      runtime.run(fx.placement, fx.assignment, unsorted, ReactivePolicy(), 5),
      std::invalid_argument);
  const std::vector<Arrival> nan = {
      {std::numeric_limits<double>::quiet_NaN(), 0, 0}};
  EXPECT_THROW(
      runtime.run(fx.placement, fx.assignment, nan, ReactivePolicy(), 5),
      std::invalid_argument);
}

TEST(Runtime, RejectsUndeployedAssignmentOfUserWithoutArrivals) {
  // Route tables are built only for arriving users, but the assignment check
  // still covers every user: a bad route throws even when its user is idle.
  const Fixture fx(29);
  const std::vector<Arrival> arrivals = {{1.0, 0, 0}};
  const ServerlessRuntime runtime(fx.scenario, ServerlessConfig{});
  EXPECT_NO_THROW(runtime.run(fx.placement, fx.assignment, arrivals,
                              ReactivePolicy(), 5));

  const int idle = fx.scenario.num_users() - 1;
  const MsId m =
      fx.scenario.requests()[static_cast<std::size_t>(idle)].chain[0];
  NodeId undeployed = net::kInvalidNode;
  for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
    if (!fx.placement.deployed(m, k)) undeployed = k;
  }
  ASSERT_NE(undeployed, net::kInvalidNode);
  core::Assignment broken = fx.assignment;
  broken.set(idle, 0, undeployed);
  EXPECT_THROW(
      runtime.run(fx.placement, broken, arrivals, ReactivePolicy(), 5),
      std::invalid_argument);
  EXPECT_THROW(runtime.run(fx.placement, broken, std::span<const Arrival>(),
                           ReactivePolicy(), 5),
               std::invalid_argument);
  // An unassigned position is no pool either (it must not alias the
  // previous service's last node in the pool table).
  core::Assignment unassigned = fx.assignment;
  unassigned.set(idle, 0, net::kInvalidNode);
  EXPECT_THROW(
      runtime.run(fx.placement, unassigned, arrivals, ReactivePolicy(), 5),
      std::invalid_argument);
}

TEST(Runtime, ColdStartAccountingConserved) {
  const Fixture fx(22);
  const auto arrivals = generate_arrivals(fx.scenario.num_users(),
                                          default_arrivals());
  ServerlessConfig config;
  config.keep_alive_s = 2.0;  // force churn: expiry + re-boot mid-window
  const ServerlessRuntime runtime(fx.scenario, config);
  const auto metrics = runtime.run(fx.placement, fx.assignment, arrivals,
                                   ReactivePolicy(), 13);

  // Every arrival completes and every stage serve is classified exactly once.
  ASSERT_EQ(metrics.requests.size(), arrivals.size());
  std::int64_t stages = 0;
  for (const auto& arrival : arrivals) {
    stages += static_cast<std::int64_t>(
        fx.scenario.requests()[static_cast<std::size_t>(arrival.user)]
            .chain.size());
  }
  EXPECT_EQ(metrics.totals.invocations, stages);
  EXPECT_EQ(metrics.totals.invocations,
            metrics.totals.warm_hits + metrics.totals.cold_serves +
                metrics.totals.queue_serves);
  EXPECT_GT(metrics.totals.cold_serves, 0);  // reactive: first hits are cold

  // Per-request latency decomposition is exact.
  for (const auto& r : metrics.requests) {
    EXPECT_NEAR(r.queue_s + r.cold_s + r.transfer_s + r.proc_s, r.total_s(),
                1e-9);
    EXPECT_GE(r.queue_s, 0.0);
    EXPECT_GE(r.cold_s, 0.0);
    EXPECT_GT(r.total_s(), 0.0);
  }
}

TEST(Runtime, KeepAliveExpiryFreesPoolCapacity) {
  const Fixture fx(23);
  // Two widely separated single-request waves; between them every container
  // outlives its keep-alive.
  std::vector<Arrival> arrivals;
  for (int u = 0; u < fx.scenario.num_users(); ++u) {
    arrivals.push_back({0.01 * (u + 1), u, 0});
  }
  for (int u = 0; u < fx.scenario.num_users(); ++u) {
    arrivals.push_back({60.0 + 0.01 * (u + 1), u, 1});
  }
  ServerlessConfig config;
  config.keep_alive_s = 1.0;
  config.keep_alive_sigma = 0.0;
  config.max_containers_per_pool = 1;  // a leaked container would wedge pools
  config.policy_tick_s = 0.0;          // no floor restoration
  const ServerlessRuntime runtime(fx.scenario, config);
  const auto metrics = runtime.run(fx.placement, fx.assignment, arrivals,
                                   ReactivePolicy(), 31);

  ASSERT_EQ(metrics.requests.size(), arrivals.size());
  EXPECT_GT(metrics.totals.expirations, 0);
  // The second wave can only be served if expiry returned the capacity: with
  // max 1 container per pool, its boots prove the slot was reclaimed.
  EXPECT_GT(metrics.totals.demand_boots,
            static_cast<std::int64_t>(0));
  std::int64_t second_wave_cold = 0;
  for (const auto& r : metrics.requests) {
    if (r.seq == 1 && r.cold_s > 0.0) ++second_wave_cold;
  }
  EXPECT_GT(second_wave_cold, 0);  // the re-boots were paid by wave 2
}

TEST(Runtime, ZeroOverheadConfigReproducesEvaluatorLatency) {
  const Fixture fx(24);
  const auto arrivals = generate_arrivals(fx.scenario.num_users(),
                                          default_arrivals());
  ServerlessConfig config;
  config.cold_start_mean_s = 0.0;
  config.cold_start_sigma = 0.0;
  config.proc_jitter_sigma = 0.0;
  config.concurrency = 1 << 20;
  config.keep_alive_s = 1e9;
  config.policy_tick_s = 0.0;
  const ServerlessRuntime runtime(fx.scenario, config);
  const auto metrics = runtime.run(fx.placement, fx.assignment, arrivals,
                                   FixedPoolPolicy(1), 1);

  const core::ChainRouter router(fx.scenario);
  ASSERT_EQ(metrics.requests.size(), arrivals.size());
  EXPECT_EQ(metrics.totals.warm_hits, metrics.totals.invocations);
  for (const auto& r : metrics.requests) {
    const auto& request =
        fx.scenario.requests()[static_cast<std::size_t>(r.user)];
    const double expected = router.completion_time(
        request, fx.assignment.user_route(r.user));
    EXPECT_NEAR(r.total_s(), expected, 1e-9);
    EXPECT_NEAR(r.queue_s + r.cold_s, 0.0, 1e-12);
  }
}

TEST(Runtime, CarriedPlacementControlsRolloutBoots) {
  const Fixture fx(25);
  const auto arrivals = generate_arrivals(fx.scenario.num_users(),
                                          default_arrivals());
  ServerlessConfig config;
  config.policy_tick_s = 0.0;
  const ServerlessRuntime runtime(fx.scenario, config);
  const FixedPoolPolicy policy(1);

  // Unchanged placement: every instance carries over, nothing boots.
  const auto unchanged = runtime.run(fx.placement, fx.assignment, arrivals,
                                     policy, 3, &fx.placement);
  EXPECT_EQ(unchanged.totals.prewarm_boots, 0);
  EXPECT_GT(unchanged.totals.initial_warm, 0);

  // Fully churned placement: nothing carries, every pool boots cold.
  const core::Placement empty(fx.scenario);
  const auto churned = runtime.run(fx.placement, fx.assignment, arrivals,
                                   policy, 3, &empty);
  EXPECT_EQ(churned.totals.initial_warm, 0);
  EXPECT_GT(churned.totals.prewarm_boots, 0);
  EXPECT_GE(churned.totals.cold_serves, unchanged.totals.cold_serves);
  EXPECT_GE(churned.mean_latency_s(), unchanged.mean_latency_s());
}

TEST(Policy, PrewarmBeatsReactiveOnColdStartsAtNoLatencyCost) {
  const Fixture fx(26, 8, 16);
  ArrivalConfig trace = default_arrivals();
  trace.burstiness = 2.0;
  const auto arrivals =
      generate_arrivals(fx.scenario.num_users(), trace);
  ServerlessConfig config;
  config.keep_alive_s = 5.0;
  const ServerlessRuntime runtime(fx.scenario, config);

  const auto reactive = runtime.run(fx.placement, fx.assignment, arrivals,
                                    ReactivePolicy(), 9);
  const auto prewarm =
      runtime.run(fx.placement, fx.assignment, arrivals,
                  SoCLPrewarmPolicy(fx.scenario), 9);

  EXPECT_GT(reactive.totals.cold_serves, 0);
  EXPECT_LT(prewarm.totals.cold_serves, reactive.totals.cold_serves);
  EXPECT_LE(prewarm.mean_latency_s(), reactive.mean_latency_s() + 1e-9);
}

TEST(Policy, SoclPrewarmQuotaFollowsPreprovisioning) {
  const Fixture fx(27);
  const SoCLPrewarmPolicy policy(fx.scenario);
  int total_quota = 0;
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
      total_quota += policy.quota(m, k);
    }
  }
  EXPECT_GT(total_quota, 0);
}

TEST(Policy, SoclPrewarmQuotaReproducesAlgorithm2) {
  // The quota map must be exactly the Algorithm 2 pre-provisioning
  // placement (one warm container per ε_s(m)·N̄(m) selected host), and per
  // microservice it can never exceed the instance bound N̄(m).
  for (const std::uint64_t seed : {41ULL, 42ULL, 43ULL}) {
    const Fixture fx(seed, 8, 20);
    const SoCLPrewarmPolicy policy(fx.scenario);
    const auto partitioning =
        core::initial_partition(fx.scenario, core::PartitionConfig{});
    const auto pre = core::preprovision(fx.scenario, partitioning);
    for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
      int quota_sum = 0;
      for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
        EXPECT_EQ(policy.quota(m, k), pre.placement.deployed(m, k) ? 1 : 0)
            << "seed " << seed << " m=" << m << " k=" << k;
        quota_sum += policy.quota(m, k);
      }
      EXPECT_LE(quota_sum, pre.bound[static_cast<std::size_t>(m)])
          << "seed " << seed << " m=" << m;
      if (!fx.scenario.demand_nodes(m).empty()) {
        EXPECT_GT(quota_sum, 0) << "seed " << seed << " m=" << m;
      }
    }
  }
}

TEST(Policy, SoclPrewarmZeroDemandServiceHasNoQuota) {
  // Two users whose chains skip microservice 1 entirely: Algorithm 2 must
  // assign it no pre-warm quota anywhere, and the policy must neither open
  // nor restore containers for it.
  net::TopologyConfig topo;
  topo.num_nodes = 4;
  auto network = net::make_topology(topo, 5);
  std::vector<workload::UserRequest> requests;
  for (int h = 0; h < 2; ++h) {
    workload::UserRequest request;
    request.id = h;
    request.attach_node = h;
    request.chain = {0, 2};
    request.edge_data = {2.0};
    request.deadline = 100.0;
    requests.push_back(request);
  }
  const core::Scenario scenario(std::move(network), workload::tiny_catalog(),
                                std::move(requests), core::ProblemConstants{});
  const SoCLPrewarmPolicy policy(scenario);
  core::Placement everywhere(scenario);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    for (NodeId k = 0; k < scenario.num_nodes(); ++k) everywhere.deploy(m, k);
  }
  for (NodeId k = 0; k < scenario.num_nodes(); ++k) {
    EXPECT_EQ(policy.quota(1, k), 0);
    EXPECT_EQ(policy.initial_warm(scenario, everywhere, k, 1), 0);
    EXPECT_EQ(policy.warm_floor(scenario, k, 1), 0);
  }
}

TEST(Policy, SoclPrewarmQuotaStaysInsidePartitionGroups) {
  // Algorithm 2 only selects hosts from Algorithm 1's groups — demand
  // nodes V(m) plus validated candidate augmentations. Any node outside a
  // microservice's group membership must carry zero quota, and its warm
  // floor stays 0 even if the measured placement deploys there.
  const Fixture fx(44, 8, 12);
  const SoCLPrewarmPolicy policy(fx.scenario);
  const auto partitioning =
      core::initial_partition(fx.scenario, core::PartitionConfig{});
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    const auto& groups =
        partitioning.per_ms[static_cast<std::size_t>(m)].groups;
    std::vector<bool> member(
        static_cast<std::size_t>(fx.scenario.num_nodes()), false);
    for (const auto& group : groups) {
      for (const NodeId k : group) member[static_cast<std::size_t>(k)] = true;
    }
    for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
      if (!member[static_cast<std::size_t>(k)]) {
        EXPECT_EQ(policy.quota(m, k), 0) << "m=" << m << " k=" << k;
        EXPECT_EQ(policy.warm_floor(fx.scenario, k, m), 0)
            << "m=" << m << " k=" << k;
      }
    }
  }
}

TEST(Runtime, RejectsInvalidConfig) {
  const Fixture fx(28);
  ServerlessConfig config;
  config.concurrency = 0;
  EXPECT_THROW(ServerlessRuntime(fx.scenario, config), std::invalid_argument);
  config = ServerlessConfig{};
  config.cold_start_mean_s = -1.0;
  EXPECT_THROW(ServerlessRuntime(fx.scenario, config), std::invalid_argument);
}

}  // namespace
}  // namespace socl::serverless
