// Tests for streaming statistics, percentiles and similarity.
#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace socl::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(4.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.0);
  EXPECT_DOUBLE_EQ(stats.min(), 4.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(Percentile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, MedianInterpolatesEvenCount) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
}

TEST(Percentile, Extremes) {
  const std::vector<double> values{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 5.0);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

// Regression: interpolating next to an infinity used to evaluate
// `0.0 * (inf - finite)` or `inf - inf`, both NaN, which poisoned every
// rank at or above the first +inf sample.
TEST(Percentile, InfinityNeighborDoesNotPoison) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values{1.0, 2.0, inf};
  // rank 1.0: exact hit on the finite 2.0 — used to be 2 + 0*(inf-2) = NaN.
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 2.0);
  // rank 1.2: nearest-rank fallback keeps the finite neighbour.
  EXPECT_DOUBLE_EQ(percentile(values, 60.0), 2.0);
  // rank 1.5 rounds half up into the infinite neighbour.
  EXPECT_TRUE(std::isinf(percentile(values, 75.0)));
  EXPECT_TRUE(std::isinf(percentile(values, 100.0)));
}

TEST(Percentile, NegativeInfinityNeighborDoesNotPoison) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values{-inf, 1.0, 2.0};
  // rank 0.5 used to be -inf + 0.5*(1 - (-inf)) = NaN.
  EXPECT_DOUBLE_EQ(percentile(values, 25.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 10.0), -inf);
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), -inf);
}

TEST(Percentile, EqualInfiniteNeighborsShortCircuit) {
  const double inf = std::numeric_limits<double>::infinity();
  // lo == hi == inf used to compute inf + frac*(inf - inf) = NaN.
  EXPECT_TRUE(std::isinf(percentile({inf, inf}, 50.0)));
  EXPECT_TRUE(std::isinf(percentile({1.0, inf, inf, inf}, 80.0)));
}

TEST(Percentile, NanInputThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN breaks the sort's strict weak ordering — reject, don't scramble.
  EXPECT_THROW(percentile({1.0, nan, 2.0}, 50.0), std::invalid_argument);
  const double ps[] = {50.0};
  EXPECT_THROW(quantiles({nan}, ps), std::invalid_argument);
}

TEST(Quantiles, InfinitySamplesMatchPercentile) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values{3.0, -inf, 1.0, inf, 2.0, inf};
  const double ps[] = {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0};
  const auto q = quantiles(values, ps);
  ASSERT_EQ(q.size(), std::size(ps));
  for (std::size_t i = 0; i < std::size(ps); ++i) {
    EXPECT_FALSE(std::isnan(q[i])) << "p=" << ps[i];
    EXPECT_DOUBLE_EQ(q[i], percentile(values, ps[i])) << "p=" << ps[i];
  }
}

TEST(Jaccard, IdenticalSetsAreOne) {
  std::unordered_set<std::uint64_t> a{1, 2, 3};
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, a), 1.0);
}

TEST(Jaccard, DisjointSetsAreZero) {
  std::unordered_set<std::uint64_t> a{1, 2}, b{3, 4};
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, b), 0.0);
}

TEST(Jaccard, PartialOverlap) {
  std::unordered_set<std::uint64_t> a{1, 2, 3}, b{2, 3, 4};
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, b), 0.5);
}

TEST(Jaccard, BothEmptyConventionOne) {
  std::unordered_set<std::uint64_t> a, b;
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, b), 1.0);
}

TEST(Cosine, ParallelVectorsAreOne) {
  const std::vector<double> a{1.0, 2.0, 3.0}, b{2.0, 4.0, 6.0};
  EXPECT_NEAR(cosine_similarity(a, b), 1.0, 1e-12);
}

TEST(Cosine, OrthogonalVectorsAreZero) {
  const std::vector<double> a{1.0, 0.0}, b{0.0, 1.0};
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);
}

TEST(Cosine, ZeroVectorYieldsZero) {
  const std::vector<double> a{0.0, 0.0}, b{1.0, 1.0};
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);
}

TEST(Cosine, SizeMismatchThrows) {
  const std::vector<double> a{1.0}, b{1.0, 2.0};
  EXPECT_THROW(cosine_similarity(a, b), std::invalid_argument);
}

// Percentile is monotone in p — property sweep across random inputs.
TEST(Quantiles, MatchesPercentileForEveryRank) {
  std::vector<double> values;
  for (int i = 0; i < 97; ++i) {
    values.push_back(std::fmod(static_cast<double>(i * 37 % 113), 19.0));
  }
  // Deliberately unsorted probe order, with duplicates and extremes.
  const double ps[] = {95.0, 5.0, 50.0, 0.0, 100.0, 50.0, 73.5};
  const auto q = quantiles(values, ps);
  ASSERT_EQ(q.size(), std::size(ps));
  for (std::size_t i = 0; i < std::size(ps); ++i) {
    EXPECT_DOUBLE_EQ(q[i], percentile(values, ps[i])) << "p=" << ps[i];
  }
}

TEST(Quantiles, SingleValueAndSingleRank) {
  const double p50[] = {50.0};
  EXPECT_DOUBLE_EQ(quantiles({42.0}, p50)[0], 42.0);
  const double p95[] = {95.0};
  EXPECT_DOUBLE_EQ(quantiles({1.0, 2.0, 3.0}, p95)[0],
                   percentile({1.0, 2.0, 3.0}, 95.0));
}

TEST(Quantiles, RejectsEmptyAndBadP) {
  const double ok[] = {50.0};
  EXPECT_THROW(quantiles({}, ok), std::invalid_argument);
  const double bad[] = {50.0, 101.0};
  EXPECT_THROW(quantiles({1.0, 2.0}, bad), std::invalid_argument);
  const double negative[] = {-0.5};
  EXPECT_THROW(quantiles({1.0}, negative), std::invalid_argument);
}

class PercentileProperty : public ::testing::TestWithParam<int> {};

TEST_P(PercentileProperty, MonotoneInP) {
  std::vector<double> values;
  for (int i = 0; i < 37; ++i) {
    values.push_back(std::fmod(static_cast<double>(i * GetParam() % 101), 17.0));
  }
  double prev = percentile(values, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = percentile(values, p);
    ASSERT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, PercentileProperty,
                         ::testing::Values(3, 7, 11, 13, 29));

}  // namespace
}  // namespace socl::util
