// Unit and property tests for the deterministic RNG.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace socl::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto value = rng.uniform_int(-5, 17);
    EXPECT_GE(value, -5);
    EXPECT_LE(value, 17);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntRejectsInvertedBounds) {
  Rng rng(6);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformRealInHalfOpenInterval) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double value = rng.uniform(2.0, 3.0);
    EXPECT_GE(value, 2.0);
    EXPECT_LT(value, 3.0);
  }
}

TEST(Rng, UniformMeanNearCenter) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(9);
  double sum = 0.0, sq = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(14);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, IndexThrowsOnZero) {
  Rng rng(16);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, PickFromVector) {
  Rng rng(17);
  const std::vector<int> items{4, 5, 6};
  for (int i = 0; i < 50; ++i) {
    const int value = rng.pick(items);
    EXPECT_TRUE(value == 4 || value == 5 || value == 6);
  }
}

TEST(Rng, PickEmptyThrows) {
  Rng rng(18);
  const std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(19);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7};
  auto sorted = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, sorted);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(20);
  const std::vector<double> weights{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.25);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(21);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zeros), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(rng.weighted_index(negative), std::invalid_argument);
}

// Property sweep: uniform_int stays within bounds for many random ranges.
class RngRangeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngRangeProperty, UniformIntAlwaysWithinBounds) {
  Rng rng(GetParam());
  Rng bounds_rng(GetParam() ^ 0xffULL);
  for (int trial = 0; trial < 200; ++trial) {
    const auto lo = bounds_rng.uniform_int(-1000, 1000);
    const auto hi = lo + bounds_rng.uniform_int(0, 500);
    const auto value = rng.uniform_int(lo, hi);
    ASSERT_GE(value, lo);
    ASSERT_LE(value, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngRangeProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 12345u));

}  // namespace
}  // namespace socl::util
