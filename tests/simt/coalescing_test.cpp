#include "simt/coalescing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace tt {
namespace {

std::size_t count(std::vector<LaneAccess> accesses) {
  std::vector<std::uint64_t> segs;
  coalesce(accesses, 128, segs);
  return segs.size();
}

TEST(Coalescing, EmptyWarpNoTransactions) {
  EXPECT_EQ(count({}), 0u);
}

TEST(Coalescing, FullyCoalescedWarp) {
  // 32 lanes x 4B contiguous = one 128-byte segment.
  std::vector<LaneAccess> a;
  for (int l = 0; l < 32; ++l)
    a.push_back({static_cast<std::uint64_t>(l) * 4, 4});
  EXPECT_EQ(count(a), 1u);
}

TEST(Coalescing, BroadcastIsOneTransaction) {
  std::vector<LaneAccess> a(32, LaneAccess{4096, 4});
  EXPECT_EQ(count(a), 1u);
}

TEST(Coalescing, FullyScatteredWarp) {
  // Each lane in its own segment: 32 transactions.
  std::vector<LaneAccess> a;
  for (int l = 0; l < 32; ++l)
    a.push_back({static_cast<std::uint64_t>(l) * 4096, 4});
  EXPECT_EQ(count(a), 32u);
}

TEST(Coalescing, StraddlingAccessTouchesTwoSegments) {
  EXPECT_EQ(count({{120, 16}}), 2u);  // bytes 120..135 cross the 128 line
}

TEST(Coalescing, LargeElementSpansMultipleSegments) {
  EXPECT_EQ(count({{0, 256}}), 2u);
  EXPECT_EQ(count({{0, 257}}), 3u);
}

TEST(Coalescing, MisalignedContiguousCosts2) {
  // 32 x 4B starting at byte 64: covers [64, 192) = 2 segments.
  std::vector<LaneAccess> a;
  for (int l = 0; l < 32; ++l)
    a.push_back({64 + static_cast<std::uint64_t>(l) * 4, 4});
  EXPECT_EQ(count(a), 2u);
}

TEST(Coalescing, ZeroByteAccessIgnored) {
  EXPECT_EQ(count({{0, 0}}), 0u);
}

TEST(Coalescing, StridedEveryOtherSegment) {
  // 16-byte stride over 20-byte elements: overlapping pattern still counted
  // via distinct segments.
  std::vector<LaneAccess> a;
  for (int l = 0; l < 8; ++l)
    a.push_back({static_cast<std::uint64_t>(l) * 256, 20});
  EXPECT_EQ(count(a), 8u);
}

TEST(Coalescing, OutputVectorHoldsSegmentIds) {
  std::vector<std::uint64_t> segs;
  std::vector<LaneAccess> a{{0, 4}, {128, 4}, {300, 4}};
  EXPECT_EQ(coalesce(a, 128, segs), 1u);  // 12 needed bytes fit one segment
  EXPECT_EQ(segs, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(Coalescing, UnsortedLanesYieldAscendingDistinctSegments) {
  std::vector<std::uint64_t> segs;
  std::vector<LaneAccess> a{{300, 4}, {0, 4}, {128, 4}, {0, 200}, {130, 0}};
  // Union [0, 200) + [300, 304) = 204 bytes: two ideal segments.
  EXPECT_EQ(coalesce(a, 128, segs), 2u);
  EXPECT_EQ(segs, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(Coalescing, NestedRangeDoesNotRepeatSegments) {
  std::vector<std::uint64_t> segs;
  std::vector<LaneAccess> a{{0, 512}, {128, 4}, {384, 200}};
  EXPECT_EQ(coalesce(a, 128, segs), 5u);  // union [0, 584)
  EXPECT_EQ(segs, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Coalescing, IdealCountsUnionBytesNotLanes) {
  std::vector<std::uint64_t> segs;
  std::vector<LaneAccess> broadcast(32, LaneAccess{4096, 4});
  EXPECT_EQ(coalesce(broadcast, 128, segs), 1u);
  // Two 20-byte records in different segments: 2 issued, 1 ideal.
  std::vector<LaneAccess> split{{100, 20}, {1000, 20}};
  EXPECT_EQ(coalesce(split, 128, segs), 1u);
  EXPECT_EQ(segs.size(), 2u);
  std::vector<LaneAccess> none{{64, 0}};
  EXPECT_EQ(coalesce(none, 128, segs), 0u);
  EXPECT_TRUE(segs.empty());
}

// Brute force: every segment any byte falls in, and the count of
// distinct bytes, for small address ranges.
std::pair<std::vector<std::uint64_t>, std::uint64_t> brute_force(
    const std::vector<LaneAccess>& accesses) {
  std::set<std::uint64_t> segs, bytes;
  for (const LaneAccess& a : accesses)
    for (std::uint64_t b = a.addr; b < a.addr + a.bytes; ++b) {
      segs.insert(b / 128);
      bytes.insert(b);
    }
  return {{segs.begin(), segs.end()}, (bytes.size() + 127) / 128};
}

// Random loads up to the size limit, with repeats, zero-byte accesses and
// ranges that straddle segments; one more access than the limit throws.
TEST(Coalescing, MatchesBruteForceOnRandomLoads) {
  Pcg32 rng(17);
  std::vector<std::uint64_t> segs;
  for (const std::size_t n : {std::size_t{2}, std::size_t{7}, std::size_t{32},
                              kMaxLoadAccesses})
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<LaneAccess> a;
      const std::uint32_t span = 1u << (6 + rng.next_below(10));
      for (std::size_t k = 0; k < n; ++k)
        a.push_back(k > 0 && rng.next_below(4) == 0
                        ? a[rng.next_below(static_cast<std::uint32_t>(k))]
                        : LaneAccess{rng.next_below(span), rng.next_below(300)});
      const auto [want_segs, want_ideal] = brute_force(a);
      EXPECT_EQ(coalesce(a, 128, segs), want_ideal) << n << " accesses";
      EXPECT_EQ(segs, want_segs) << n << " accesses";
    }
  std::vector<LaneAccess> too_many(kMaxLoadAccesses + 1, LaneAccess{0, 4});
  EXPECT_THROW(coalesce(too_many, 128, segs), std::length_error);
}

}  // namespace
}  // namespace tt
