#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace tt {
namespace {

TEST(Pcg32, DeterministicForSeed) {
  Pcg32 a(123, 7), b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, DistinctStreamsDiffer) {
  Pcg32 a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Pcg32, DistinctSeedsDiffer) {
  Pcg32 a(1, 7), b(2, 7);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Pcg32, NextDoubleInUnitInterval) {
  Pcg32 rng(99);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Pcg32, NextBelowRespectsBound) {
  Pcg32 rng(5);
  for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Pcg32, NextBelowCoversRange) {
  Pcg32 rng(6);
  std::array<int, 8> hits{};
  for (int i = 0; i < 8000; ++i) ++hits[rng.next_below(8)];
  for (int h : hits) EXPECT_GT(h, 700);  // each bucket near 1000
}

TEST(Pcg32, UniformRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Pcg32, NormalMomentsApproximate) {
  Pcg32 rng(8);
  double sum = 0, sumsq = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    double v = rng.normal();
    sum += v;
    sumsq += v * v;
  }
  double mean = sum / kN;
  double var = sumsq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Pcg32, NormalWithParams) {
  Pcg32 rng(9);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.normal(5.0, 0.5);
  EXPECT_NEAR(sum / kN, 5.0, 0.02);
}

TEST(Pcg32, WorksWithStdShuffle) {
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  Pcg32 rng(10);
  std::shuffle(v.begin(), v.end(), rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_FALSE(std::is_sorted(v.begin(), v.end()));  // astronomically unlikely
}

TEST(Pcg32, AdvanceEqualsStepping) {
  for (std::uint64_t k : {0ull, 1ull, 2ull, 63ull, 64ull, 65ull, 1000ull,
                          1ull << 20}) {
    Pcg32 jumped(42, 9), stepped(42, 9);
    jumped.advance(k);
    for (std::uint64_t i = 0; i < k; ++i) stepped.next_u32();
    EXPECT_TRUE(jumped == stepped) << "k = " << k;
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(jumped.next_u32(), stepped.next_u32()) << "k = " << k;
  }
}

TEST(Pcg32, AdvancesCompose) {
  const std::uint64_t a = 0x9e3779b97f4a7c15ull, b = 0x7f4a7c159e3779b9ull;
  Pcg32 twice(3, 17), once(3, 17);
  twice.advance(a);
  twice.advance(b);
  once.advance(a + b);  // wraps mod 2^64, the LCG's period
  EXPECT_TRUE(twice == once);
  EXPECT_EQ(twice.next_u32(), once.next_u32());

  Pcg32 round_trip(3, 17);
  round_trip.advance(~0ull);
  round_trip.advance(1);
  EXPECT_TRUE(round_trip == Pcg32(3, 17));
}

TEST(Pcg32, AdvanceKeepsTheCachedNormal) {
  Pcg32 jumped(11), stepped(11);
  (void)jumped.normal();
  (void)stepped.normal();
  ASSERT_TRUE(jumped.has_cached_normal());
  jumped.advance(1000);
  for (int i = 0; i < 1000; ++i) stepped.next_u32();
  EXPECT_TRUE(jumped.has_cached_normal());
  EXPECT_TRUE(jumped == stepped);
  // The cached variate first, then a fresh pair from the jumped stream.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(jumped.normal()),
              std::bit_cast<std::uint64_t>(stepped.normal()));
}

TEST(Pcg32, EqualityComparesPositionAndCache) {
  Pcg32 a(1, 2), b(1, 2);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == Pcg32(1, 3));  // another stream
  b.next_u32();
  EXPECT_FALSE(a == b);
  a.next_u32();
  EXPECT_TRUE(a == b);
  (void)a.normal();  // four steps and a cached variate
  b.advance(4);
  EXPECT_FALSE(a == b);
  (void)a.normal();
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace tt
