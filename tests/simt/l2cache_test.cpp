#include "simt/l2cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "util/rng.h"

namespace tt {
namespace {

TEST(L2Cache, MissThenHit) {
  L2Cache c(16 * 1024, 128, 4);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(64));  // same line
  EXPECT_FALSE(c.access(128));
}

TEST(L2Cache, GeometryRoundsToPowerOfTwoSets) {
  L2Cache c(100 * 128 * 4, 128, 4);  // 100 sets -> rounds down to 64
  EXPECT_EQ(c.num_sets(), 64u);
}

TEST(L2Cache, TinyCapacityStillWorks) {
  L2Cache c(64, 128, 4);  // less than one line
  EXPECT_EQ(c.num_sets(), 1u);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
}

TEST(L2Cache, RejectsBadGeometry) {
  EXPECT_THROW(L2Cache(1024, 0, 4), std::invalid_argument);
  EXPECT_THROW(L2Cache(1024, 128, 0), std::invalid_argument);
}

TEST(L2Cache, LruEvictsOldest) {
  // 1 set x 2 ways of 128B lines.
  L2Cache c(256, 128, 2);
  ASSERT_EQ(c.num_sets(), 1u);
  EXPECT_FALSE(c.access(0));    // A
  EXPECT_FALSE(c.access(128));  // B
  EXPECT_TRUE(c.access(0));     // A hit, B is now LRU
  EXPECT_FALSE(c.access(256));  // C evicts B
  EXPECT_TRUE(c.access(0));     // A still resident
  EXPECT_FALSE(c.access(128));  // B was evicted
}

TEST(L2Cache, WorkingSetLargerThanCapacityThrashes) {
  L2Cache c(4 * 1024, 128, 4);  // 32 lines
  // Stream 64 distinct lines twice: second pass still misses (LRU).
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t line = 0; line < 64; ++line)
      EXPECT_FALSE(c.access(line * 128)) << "pass " << pass;
}

TEST(L2Cache, WorkingSetWithinCapacityAllHits) {
  L2Cache c(16 * 1024, 128, 16);  // 128 lines fully associative-ish
  for (std::uint64_t line = 0; line < 64; ++line) c.access(line * 128);
  for (std::uint64_t line = 0; line < 64; ++line)
    EXPECT_TRUE(c.access(line * 128));
}

TEST(L2Cache, ClearForgets) {
  L2Cache c(16 * 1024, 128, 4);
  c.access(0);
  EXPECT_TRUE(c.access(0));
  c.clear();
  EXPECT_FALSE(c.access(0));
}

// Reference LRU model: every way carries the tick of its last access; a
// miss replaces the way with the oldest tick (never-used ways first, in way
// order).
class TickLru {
 public:
  TickLru(std::size_t capacity_bytes, int line_bytes, int assoc)
      : line_bytes_(static_cast<std::uint64_t>(line_bytes)), assoc_(assoc) {
    const std::size_t sets =
        capacity_bytes / static_cast<std::size_t>(line_bytes) /
        static_cast<std::size_t>(assoc);
    sets_ = sets == 0 ? 1 : std::bit_floor(sets);
    ways_.assign(sets_ * static_cast<std::size_t>(assoc), Way{});
  }

  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / line_bytes_;
    const std::size_t set = static_cast<std::size_t>(line) & (sets_ - 1);
    const std::uint64_t tag = line / sets_;
    Way* base = &ways_[set * static_cast<std::size_t>(assoc_)];
    ++tick_;
    int victim = 0;
    for (int w = 0; w < assoc_; ++w) {
      if (base[w].tag == tag) {
        base[w].lru = tick_;
        return true;
      }
      if (base[w].lru < base[victim].lru) victim = w;
    }
    base[victim].tag = tag;
    base[victim].lru = tick_;
    return false;
  }

 private:
  struct Way {
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint64_t lru = 0;
  };
  std::size_t sets_;
  std::uint64_t line_bytes_;
  int assoc_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_;
};

// Random streams that mix reuse of a small hot set (hits, reordering of
// the recency stack) with fresh lines (evictions).
void expect_same_hits(std::size_t capacity, int line, int assoc,
                      std::uint64_t seed) {
  L2Cache fast(capacity, line, assoc);
  TickLru ref(capacity, line, assoc);
  Pcg32 rng(seed, 0x12c);
  std::vector<std::uint64_t> hot;
  for (int i = 0; i < 24; ++i) hot.push_back(rng.next_u64() % (1u << 20));
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr =
        rng.next_below(3) != 0
            ? hot[rng.next_below(static_cast<std::uint32_t>(hot.size()))] +
                  rng.next_below(static_cast<std::uint32_t>(line))
            : rng.next_u64() % (1u << 20);
    const bool h = fast.access(addr);
    ASSERT_EQ(h, ref.access(addr))
        << "access " << i << " addr " << addr << " (" << capacity << " B, "
        << line << " B lines, " << assoc << " ways)";
    hits += h ? 1 : 0;
  }
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, 20000);
}

TEST(L2Cache, MatchesTickLruReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_same_hits(256, 128, 2, seed);             // 1 set x 2 ways
    expect_same_hits(8 * 16 * 128, 128, 16, seed);   // 8 sets x 16 ways
    expect_same_hits(96 * 4 * 8, 96, 4, seed);       // 96-byte lines
    expect_same_hits(64, 128, 4, seed);              // below one line
    expect_same_hits(1170, 128, 16, seed);           // a full-grid warp slice
  }
}

TEST(L2Cache, EqualityComparesResidentLinesInRecencyOrder) {
  L2Cache a(256, 128, 2), b(256, 128, 2);
  EXPECT_TRUE(a == b);
  a.access(0);
  a.access(128);
  b.access(128);
  b.access(0);
  EXPECT_FALSE(a == b);  // same lines, different LRU victim
  b.access(128);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace tt
