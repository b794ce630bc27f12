#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <span>

#include "util/expects.hpp"

namespace ftcf::util {
namespace {

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsSafe) {
  const Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_TRUE(std::isnan(acc.min()));
  EXPECT_TRUE(std::isnan(acc.max()));
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> sample{5, 3, 1, 4, 2};
  constexpr std::array<double, 5> kQs = {0.0, 1.0, 0.5, 0.25, 0.1};
  const std::vector<double> got = percentiles(sample, kQs);
  EXPECT_DOUBLE_EQ(got[0], 1.0);
  EXPECT_DOUBLE_EQ(got[1], 5.0);
  EXPECT_DOUBLE_EQ(got[2], 3.0);
  EXPECT_DOUBLE_EQ(got[3], 2.0);
  EXPECT_DOUBLE_EQ(got[4], 1.4);
}

TEST(Percentile, RejectsBadInput) {
  constexpr std::array<double, 1> kMedian = {0.5};
  constexpr std::array<double, 1> kOutOfRange = {1.5};
  EXPECT_THROW(percentiles({}, kMedian), PreconditionError);
  EXPECT_THROW(percentiles({1.0}, kOutOfRange), PreconditionError);
}

TEST(Percentiles, MatchesRepeatedSingleQueries) {
  const std::vector<double> sample{9, 1, 4, 7, 2, 8, 3, 6, 5, 10};
  const std::vector<double> qs{0.0, 0.1, 0.5, 0.95, 0.99, 1.0};
  const std::vector<double> batch = percentiles(sample, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i)
    EXPECT_DOUBLE_EQ(batch[i], percentiles(sample, std::span(&qs[i], 1))[0])
        << "q=" << qs[i];
}

TEST(Percentiles, QueriesNeedNotBeSorted) {
  const std::vector<double> sample{1, 2, 3, 4, 5};
  constexpr std::array<double, 3> kQs = {0.5, 0.0, 1.0};
  const std::vector<double> batch = percentiles(sample, kQs);
  EXPECT_DOUBLE_EQ(batch[0], 3.0);
  EXPECT_DOUBLE_EQ(batch[1], 1.0);
  EXPECT_DOUBLE_EQ(batch[2], 5.0);
}

TEST(Percentiles, EmptyQueryListIsFine) {
  EXPECT_TRUE(percentiles({1.0, 2.0}, std::span<const double>{}).empty());
}

TEST(Percentiles, RejectsBadInput) {
  constexpr std::array<double, 1> kMedian = {0.5};
  constexpr std::array<double, 2> kBad = {0.5, 1.5};
  EXPECT_THROW(percentiles({}, kMedian), PreconditionError);
  EXPECT_THROW(percentiles({1.0}, kBad), PreconditionError);
}

}  // namespace
}  // namespace ftcf::util
