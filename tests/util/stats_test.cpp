#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>


namespace tt {
namespace {

TEST(RunningStats, SingleValue) {
  RunningStats rs;
  rs.add(42.0);
  Summary s = rs.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(v);
  Summary s = rs.summary();
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Summarize, SpanOverload) {
  std::vector<double> xs{1.0, 2.0, 3.0};
  Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_EQ(s.count, 3u);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

// The rank split percentile() reads: order statistics lo and hi around
// p / 100 * (n - 1), and hi == lo (the largest value) at the top.
TEST(Percentile, RankSplitsBetweenOrderStatistics) {
  const PercentileRank mid = percentile_rank(4, 50);  // rank 1.5
  EXPECT_EQ(mid.lo, 1u);
  EXPECT_EQ(mid.hi, 2u);
  EXPECT_EQ(mid.frac, 0.5);
  EXPECT_EQ(mid.between(20.0, 30.0), 25.0);
  const PercentileRank top = percentile_rank(4, 100);
  EXPECT_EQ(top.lo, 3u);
  EXPECT_EQ(top.hi, 3u);
  EXPECT_EQ(top.between(40.0, 40.0), 40.0);
  const PercentileRank one = percentile_rank(1, 99);
  EXPECT_EQ(one.lo, 0u);
  EXPECT_EQ(one.hi, 0u);
  EXPECT_EQ(one.between(-0.0, 1.0), -0.0);
  EXPECT_TRUE(std::signbit(one.between(-0.0, 1.0)));  // the value itself
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(RunningStats, WelfordStableForLargeOffset) {
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) rs.add(1e9 + (i % 2));
  EXPECT_NEAR(rs.variance(), 0.25, 1e-6);
}

}  // namespace
}  // namespace tt
