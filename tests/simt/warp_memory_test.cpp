#include "simt/warp_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "util/rng.h"

namespace tt {
namespace {

struct Fixture {
  GpuAddressSpace space;
  DeviceConfig cfg;
  KernelStats stats;
  BufferId buf4, buf20;

  Fixture() {
    cfg.model_l2 = false;
    buf4 = space.register_buffer("b4", 4, 10000);
    buf20 = space.register_buffer("b20", 20, 10000);
  }
};

TEST(WarpMemory, CoalescedWarpLoadIsOneTransaction) {
  Fixture f;
  WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
  for (int l = 0; l < 32; ++l) mem.lane_load(l, f.buf4, l);
  mem.commit();
  EXPECT_EQ(f.stats.dram_transactions, 1u);
  EXPECT_EQ(f.stats.load_instructions, 1u);
  EXPECT_EQ(f.stats.dram_bytes, 128u);
}

TEST(WarpMemory, BroadcastIsOneTransaction) {
  Fixture f;
  WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
  for (int l = 0; l < 32; ++l) mem.lane_load(l, f.buf4, 77);
  mem.commit();
  EXPECT_EQ(f.stats.dram_transactions, 1u);
}

TEST(WarpMemory, ScatteredWarpLoadSerializes) {
  Fixture f;
  WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
  for (int l = 0; l < 32; ++l) mem.lane_load(l, f.buf4, l * 64);
  mem.commit();
  EXPECT_EQ(f.stats.dram_transactions, 32u);
}

TEST(WarpMemory, TwoBuffersAreSeparateInstructions) {
  Fixture f;
  WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
  for (int l = 0; l < 32; ++l) {
    mem.lane_load(l, f.buf4, l);
    mem.lane_load(l, f.buf20, l);
  }
  mem.commit();
  EXPECT_EQ(f.stats.load_instructions, 2u);
  // 32 x 20B contiguous = 640 bytes = 5 segments; plus 1 for the 4B buffer.
  EXPECT_EQ(f.stats.dram_transactions, 6u);
}

TEST(WarpMemory, UnevenTripCountsReplayTheLoad) {
  Fixture f;
  WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
  // Lane 0 reads three elements, others one: 3 load instructions.
  mem.lane_load(0, f.buf4, 0);
  mem.lane_load(0, f.buf4, 1);
  mem.lane_load(0, f.buf4, 2);
  for (int l = 1; l < 32; ++l) mem.lane_load(l, f.buf4, l);
  mem.commit();
  EXPECT_EQ(f.stats.load_instructions, 3u);
}

TEST(WarpMemory, L2FiltersRepeatedSegments) {
  Fixture f;
  f.cfg.model_l2 = true;
  L2Cache l2(64 * 1024, 128, 8);
  WarpMemory mem(f.space, f.cfg, &l2, f.stats);
  for (int rep = 0; rep < 3; ++rep) {
    for (int l = 0; l < 32; ++l) mem.lane_load(l, f.buf4, l);
    mem.commit();
  }
  EXPECT_EQ(f.stats.dram_transactions, 1u);      // first touch only
  EXPECT_EQ(f.stats.l2_hit_transactions, 2u);    // the two repeats
}

TEST(WarpMemory, RawAddressesWork) {
  Fixture f;
  WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
  for (int l = 0; l < 32; ++l)
    mem.lane_load_raw(l, 1u << 20, 8);  // all lanes same 8 bytes
  mem.commit();
  EXPECT_EQ(f.stats.dram_transactions, 1u);
}

TEST(WarpMemory, CommitClearsPending) {
  Fixture f;
  WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
  mem.lane_load(0, f.buf4, 0);
  mem.commit();
  mem.commit();  // nothing new
  EXPECT_EQ(f.stats.dram_transactions, 1u);
}

TEST(WarpMemory, AttributionRowsSumToAggregateCounters) {
  Fixture f;
  f.cfg.model_l2 = true;
  L2Cache l2(64 * 1024, 128, 8);
  WarpMemory mem(f.space, f.cfg, &l2, f.stats);
  for (int rep = 0; rep < 3; ++rep) {
    for (int l = 0; l < 32; ++l) {
      mem.lane_load(l, f.buf4, l);
      mem.lane_load(l, f.buf20, l * 7);  // strided: multiple segments
    }
    mem.commit();
  }
  std::uint64_t groups = 0, l2hit = 0, dram = 0, bytes = 0;
  for (const BufferTraffic& r : f.stats.memory.rows()) {
    groups += r.load_groups;
    l2hit += r.l2_hit_transactions;
    dram += r.dram_transactions;
    bytes += r.dram_bytes;
    EXPECT_GT(r.coalescing_efficiency(), 0.0);
    EXPECT_LE(r.coalescing_efficiency(), 1.0);
    EXPECT_LE(r.ideal_segments, r.issued_segments);
    EXPECT_EQ(r.issued_segments,
              r.smem_cache_hits + r.l2_hit_transactions +
                  r.dram_transactions);
  }
  EXPECT_EQ(f.stats.memory.rows().size(), 2u);
  EXPECT_EQ(groups, f.stats.load_instructions);
  EXPECT_EQ(l2hit, f.stats.l2_hit_transactions);
  EXPECT_EQ(dram, f.stats.dram_transactions);
  EXPECT_EQ(bytes, f.stats.dram_bytes);
}

TEST(WarpMemory, FieldSharesSumExactlyToTheRow) {
  Fixture f;
  // 48-byte node record straddling 128-byte segment boundaries, half
  // annotated: the implicit "(other)" share must absorb the payload bytes
  // so the field sums close exactly.
  BufferId nodes = f.space.register_buffer("nodes", 48, 64,
                                           {{"bbox", 0, 24}});
  WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
  for (int l = 0; l < 32; ++l) mem.lane_load(l, nodes, l * 2);
  mem.commit();
  ASSERT_EQ(f.stats.memory.rows().size(), 1u);
  const BufferTraffic& r = f.stats.memory.rows()[0];
  ASSERT_EQ(r.fields.size(), 2u);  // bbox + "(other)"
  EXPECT_EQ(r.fields[0].name, "bbox");
  EXPECT_EQ(r.fields[1].name, "(other)");
  double txn = 0, dram = 0, bytes = 0;
  for (const FieldTraffic& ft : r.fields) {
    txn += ft.transactions;
    dram += ft.dram;
    bytes += ft.dram_bytes;
  }
  // Shares are dyadic rationals (k/128): the sums are exact, not approximate.
  EXPECT_EQ(txn, static_cast<double>(r.issued_segments));
  EXPECT_EQ(dram, static_cast<double>(r.dram_transactions));
  EXPECT_EQ(bytes, static_cast<double>(r.dram_bytes));
}

TEST(WarpMemory, RawAddressesChargeTheUnmappedRow) {
  Fixture f;
  WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
  for (int l = 0; l < 32; ++l)
    mem.lane_load_raw(l, (1u << 26) + static_cast<std::uint64_t>(l) * 4, 4);
  mem.commit();
  ASSERT_EQ(f.stats.memory.rows().size(), 1u);
  EXPECT_EQ(f.stats.memory.rows()[0].name, "(unmapped)");
  EXPECT_EQ(f.stats.memory.rows()[0].dram_transactions,
            f.stats.dram_transactions);
}

TEST(WarpMemory, MergeFoldsRowsByName) {
  Fixture f;
  KernelStats other;
  {
    WarpMemory mem(f.space, f.cfg, nullptr, f.stats);
    for (int l = 0; l < 32; ++l) mem.lane_load(l, f.buf4, l);
    mem.commit();
  }
  {
    WarpMemory mem(f.space, f.cfg, nullptr, other);
    for (int l = 0; l < 32; ++l) mem.lane_load(l, f.buf4, 1024 + l);
    mem.commit();
  }
  f.stats.memory.merge(other.memory);
  ASSERT_EQ(f.stats.memory.rows().size(), 1u);
  EXPECT_EQ(f.stats.memory.rows()[0].dram_transactions, 2u);
  EXPECT_EQ(f.stats.memory.rows()[0].load_groups, 2u);
}

// ---------------------------------------------------------------------
// Differential test: WarpMemory::commit against a reference that spells
// out the commit contract the straightforward way -- a stable sort of the
// accesses by (group, lane), one rescan per rank, sorted segment lists and
// a closed-form field split per segment.
// ---------------------------------------------------------------------

class ReferenceWarpMemory {
 public:
  ReferenceWarpMemory(const GpuAddressSpace& space, const DeviceConfig& cfg,
                      L2Cache* l2, KernelStats& stats,
                      const SmemNodeCache* smem_cache, bool elide)
      : space_(&space), cfg_(&cfg), l2_(l2), stats_(&stats),
        smem_cache_(smem_cache), elide_(elide) {}

  void lane_load(int lane, BufferId buf, std::uint64_t idx) {
    pending_.push_back(Pending{buf, space_->addr(buf, idx),
                               static_cast<std::uint32_t>(space_->elem_bytes(buf)),
                               static_cast<std::uint16_t>(lane), false});
  }
  void lane_load_raw(int lane, std::uint64_t addr, std::uint32_t bytes) {
    pending_.push_back(
        Pending{-2, addr, bytes, static_cast<std::uint16_t>(lane), true});
  }
  void lane_stack_traffic(int lane, std::uint64_t addr, std::uint32_t bytes) {
    pending_.push_back(Pending{space_->buffer_at(addr), addr, bytes,
                               static_cast<std::uint16_t>(lane), true});
  }

  std::uint64_t commit() {
    if (pending_.empty()) return 0;
    std::uint64_t dram = 0;
    const auto tb = static_cast<std::uint32_t>(cfg_->transaction_bytes);
    if (elide_) {
      std::vector<std::uint32_t> order(pending_.size());
      for (std::uint32_t k = 0; k < order.size(); ++k) order[k] = k;
      std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        const Pending& pa = pending_[a];
        const Pending& pb = pending_[b];
        if (pa.buf != pb.buf) return pa.buf < pb.buf;
        if (pa.lane != pb.lane) return pa.lane < pb.lane;
        if (pa.addr != pb.addr) return pa.addr < pb.addr;
        return a < b;
      });
      constexpr BufferId kElided = -3;
      std::size_t last_kept = 0;
      for (std::size_t k = 1; k < order.size(); ++k) {
        const Pending& prev = pending_[order[last_kept]];
        Pending& cur = pending_[order[k]];
        if (!cur.stack && !prev.stack && cur.buf == prev.buf &&
            cur.lane == prev.lane && cur.addr == prev.addr) {
          cur.buf = kElided;
          stats_->note_shared_load_elided();
        } else {
          last_kept = k;
        }
      }
      std::erase_if(pending_, [](const Pending& p) { return p.buf == kElided; });
      if (pending_.empty()) return 0;
    }
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Pending& a, const Pending& b) {
                       if (key(a) != key(b)) return key(a) < key(b);
                       return a.lane < b.lane;
                     });
    std::size_t i = 0;
    while (i < pending_.size()) {
      const BufferId gkey = key(pending_[i]);
      std::size_t j = i;
      while (j < pending_.size() && key(pending_[j]) == gkey) ++j;
      std::vector<int> seen(64, 0);
      int max_rank = 0;
      for (std::size_t k = i; k < j; ++k)
        max_rank = std::max(max_rank, ++seen[pending_[k].lane]);
      for (int rank = 0; rank < max_rank; ++rank) {
        std::vector<LaneAccess> group;
        std::fill(seen.begin(), seen.end(), 0);
        for (std::size_t k = i; k < j; ++k)
          if (seen[pending_[k].lane]++ == rank)
            group.push_back(LaneAccess{pending_[k].addr, pending_[k].bytes});
        ++stats_->load_instructions;
        std::vector<std::uint64_t> segs;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
        for (const LaneAccess& a : group) {
          spans.emplace_back(a.addr, a.addr + a.bytes);
          if (a.bytes == 0) continue;
          for (std::uint64_t s = a.addr / tb; s <= (a.addr + a.bytes - 1) / tb; ++s)
            segs.push_back(s);
        }
        std::sort(segs.begin(), segs.end());
        segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
        std::sort(spans.begin(), spans.end());
        std::uint64_t bytes = 0, lo = 0, hi = 0;
        bool open = false;
        for (const auto& [s, e] : spans) {
          if (!open || s > hi) {
            if (open) bytes += hi - lo;
            lo = s;
            hi = e;
            open = true;
          } else {
            hi = std::max(hi, e);
          }
        }
        if (open) bytes += hi - lo;
        const BufferId attr = gkey >= 0 ? gkey : space_->buffer_at(group[0].addr);
        {
          BufferTraffic& row = stats_->memory.row(attr, *space_);
          ++row.load_groups;
          if (rank > 0) ++row.replayed_loads;
          row.issued_segments += segs.size();
          row.ideal_segments += (bytes + tb - 1) / tb;
        }
        for (std::uint64_t seg : segs) {
          const std::uint64_t seg_addr = seg * tb;
          const BufferId sb = gkey >= 0 ? gkey : space_->buffer_at(seg_addr);
          bool smem_miss = false;
          if (smem_cache_ != nullptr) {
            const SmemNodeCache::Lookup c = smem_cache_->lookup(seg_addr);
            if (c == SmemNodeCache::Lookup::kHit) {
              stats_->note_smem_cache_hit();
              stats_->note_mem_stall(cfg_->c_smem);
              charge(sb, seg_addr, kSmem, false);
              continue;
            }
            if (c == SmemNodeCache::Lookup::kMiss) {
              stats_->note_smem_cache_miss();
              smem_miss = true;
            }
          }
          if (l2_ != nullptr && l2_->access(seg_addr)) {
            ++stats_->l2_hit_transactions;
            stats_->note_mem_stall(cfg_->c_l2hit);
            charge(sb, seg_addr, kL2, smem_miss);
          } else {
            ++stats_->dram_transactions;
            ++dram;
            stats_->dram_bytes += tb;
            charge(sb, seg_addr, kDram, smem_miss);
          }
        }
      }
      i = j;
    }
    pending_.clear();
    return dram;
  }

 private:
  struct Pending {
    BufferId buf;
    std::uint64_t addr;
    std::uint32_t bytes;
    std::uint16_t lane;
    bool stack;
  };
  enum Outcome { kSmem, kL2, kDram };
  static BufferId key(const Pending& p) { return p.stack ? -2 : p.buf; }

  void charge(BufferId sb, std::uint64_t lo, Outcome out, bool smem_miss) {
    const auto tb = static_cast<std::uint64_t>(cfg_->transaction_bytes);
    BufferTraffic& row = stats_->memory.row(sb, *space_);
    if (smem_miss) ++row.smem_cache_misses;
    double stall = 0;
    if (out == kSmem) {
      ++row.smem_cache_hits;
      stall = cfg_->c_smem;
    } else if (out == kL2) {
      ++row.l2_hit_transactions;
      stall = cfg_->c_l2hit;
    } else {
      ++row.dram_transactions;
      row.dram_bytes += tb;
    }
    row.mem_stall_cycles += stall;
    if (sb < 0 || row.fields.empty()) return;
    std::uint64_t claimed = 0;
    const std::size_t nf = row.fields.size();
    for (std::size_t f = 0; f < nf; ++f) {
      const std::uint64_t ov =
          f + 1 < nf ? space_->field_overlap(sb, f, lo, lo + tb) : tb - claimed;
      claimed += f + 1 < nf ? ov : 0;
      if (ov == 0) continue;
      FieldTraffic& ft = row.fields[f];
      const double share = static_cast<double>(ov) / static_cast<double>(tb);
      ft.transactions += share;
      if (out == kSmem) ft.smem_cache_hits += share;
      if (out == kL2) ft.l2_hit += share;
      if (out == kDram) {
        ft.dram += share;
        ft.dram_bytes += static_cast<double>(ov);
      }
      ft.mem_stall_cycles += stall * share;
    }
  }

  const GpuAddressSpace* space_;
  const DeviceConfig* cfg_;
  L2Cache* l2_;
  KernelStats* stats_;
  const SmemNodeCache* smem_cache_;
  bool elide_;
  std::vector<Pending> pending_;
};

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// Every counter of `a` and `b`, and every attribution row and field value
// bit for bit, in row order.
void expect_same_stats(const KernelStats& a, const KernelStats& b,
                       const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.load_instructions, b.load_instructions);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.l2_hit_transactions, b.l2_hit_transactions);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(bits(a.instr_cycles), bits(b.instr_cycles));
  EXPECT_EQ(a.warp_steps, b.warp_steps);
  EXPECT_EQ(a.lane_visits, b.lane_visits);
  EXPECT_EQ(a.warp_pops, b.warp_pops);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.votes, b.votes);
  EXPECT_EQ(a.active_lane_sum, b.active_lane_sum);
  EXPECT_EQ(a.peak_stack_entries, b.peak_stack_entries);
  EXPECT_EQ(a.smem_cache_hits, b.smem_cache_hits);
  EXPECT_EQ(a.smem_cache_misses, b.smem_cache_misses);
  EXPECT_EQ(a.shared_loads_elided, b.shared_loads_elided);
  for (std::size_t k = 0; k < kNumCycleBuckets; ++k)
    EXPECT_EQ(bits(a.cycle_buckets[k]), bits(b.cycle_buckets[k]));
  const auto& ra = a.memory.rows();
  const auto& rb = b.memory.rows();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    const BufferTraffic& x = ra[i];
    const BufferTraffic& y = rb[i];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.elem_bytes, y.elem_bytes);
    EXPECT_EQ(x.load_groups, y.load_groups);
    EXPECT_EQ(x.replayed_loads, y.replayed_loads);
    EXPECT_EQ(x.issued_segments, y.issued_segments);
    EXPECT_EQ(x.ideal_segments, y.ideal_segments);
    EXPECT_EQ(x.l2_hit_transactions, y.l2_hit_transactions);
    EXPECT_EQ(x.dram_transactions, y.dram_transactions);
    EXPECT_EQ(x.dram_bytes, y.dram_bytes);
    EXPECT_EQ(x.smem_cache_hits, y.smem_cache_hits);
    EXPECT_EQ(x.smem_cache_misses, y.smem_cache_misses);
    EXPECT_EQ(bits(x.mem_stall_cycles), bits(y.mem_stall_cycles));
    ASSERT_EQ(x.fields.size(), y.fields.size());
    for (std::size_t f = 0; f < x.fields.size(); ++f) {
      const FieldTraffic& p = x.fields[f];
      const FieldTraffic& q = y.fields[f];
      EXPECT_EQ(p.name, q.name);
      EXPECT_EQ(p.offset, q.offset);
      EXPECT_EQ(p.bytes, q.bytes);
      EXPECT_EQ(bits(p.transactions), bits(q.transactions));
      EXPECT_EQ(bits(p.l2_hit), bits(q.l2_hit));
      EXPECT_EQ(bits(p.dram), bits(q.dram));
      EXPECT_EQ(bits(p.dram_bytes), bits(q.dram_bytes));
      EXPECT_EQ(bits(p.smem_cache_hits), bits(q.smem_cache_hits));
      EXPECT_EQ(bits(p.mem_stall_cycles), bits(q.mem_stall_cycles));
    }
  }
}

struct DiffCase {
  bool l2 = false;
  bool smem = false;
  bool elide = false;
  std::uint64_t seed = 0;
};

// Drives WarpMemory and the reference with the same seeded access lists:
// buffers of 4/12/20/48-byte elements with and without field maps, 200
// live elements each (indices run past the end), two registered stack
// arenas, raw addresses inside and outside every buffer, lanes in
// arbitrary order with up to ten accesses per lane, and repeated and
// stack/non-stack same-address entries.
void run_differential(const DiffCase& c) {
  GpuAddressSpace space;
  constexpr std::uint32_t kLive = 200;
  const std::vector<BufferId> bufs = {
      space.register_buffer("e4", 4, kLive),
      space.register_buffer("e12f", 12, kLive, {{"a", 0, 4}, {"b", 8, 4}}),
      space.register_buffer("e20f", 20, kLive, {{"x", 0, 12}, {"y", 16, 4}}),
      space.register_buffer("e48f", 48, kLive,
                            {{"bbox", 0, 24}, {"kid", 32, 8}, {"w", 44, 4}}),
      space.register_buffer("e12", 12, kLive),
      space.register_buffer("e48", 48, kLive),
  };
  const std::vector<BufferId> arenas = {
      space.register_buffer("rope_stack", 1, 3000),
      space.register_buffer("local_frames", 1, 1000),
  };
  const std::uint64_t top = space.footprint_bytes();

  DeviceConfig cfg;
  cfg.c_smem = 3;  // distinct stall costs, so a swapped outcome shows
  cfg.c_l2hit = 5;
  const SmemNodeCache cache =
      SmemNodeCache::build(space, {bufs[2], bufs[3]}, kLive, 2048);
  const SmemNodeCache* cp = c.smem ? &cache : nullptr;
  // A 4-set x 4-way slice: small enough that lines get evicted.
  L2Cache l2_fast(4 * 4 * 128, 128, 4), l2_ref(4 * 4 * 128, 128, 4);
  KernelStats fast_stats, ref_stats;
  WarpMemory fast(space, cfg, c.l2 ? &l2_fast : nullptr, fast_stats, cp);
  fast.set_shared_load_elision(c.elide);
  ReferenceWarpMemory ref(space, cfg, c.l2 ? &l2_ref : nullptr, ref_stats, cp,
                          c.elide);

  // One recorded access: a load of element `at` of `buf`, or stack / raw
  // traffic at address `at`.
  struct Op {
    enum Kind { kLoad, kStack, kRaw } kind;
    int lane;
    BufferId buf;
    std::uint64_t at;
    std::uint32_t bytes;
    [[nodiscard]] BufferId key() const { return kind == kLoad ? buf : -2; }
  };
  Pcg32 rng(c.seed, 0xd1ff);
  std::uint32_t deepest = 0;  // most loads one lane issued in one commit
  int issue_ordered = 0;      // multi-access commits recorded in issue order
  std::vector<Op> ops;
  for (int commit = 0; commit < 60; ++commit) {
    // Every fifth commit is a deep one: at most four lanes with up to ten
    // loads each (rank 9); a small buffer pool puts repeats in one group.
    // Every fourth of the rest is a one- or two-access commit.
    const bool deep = commit % 5 == 1;
    const std::uint32_t n = deep ? 64 + rng.next_below(32)
                                 : 1 + rng.next_below(commit % 4 == 0 ? 2 : 96);
    const std::uint32_t max_reps = deep ? 10 : 1 + rng.next_below(10);
    const std::uint32_t pool =
        1 + rng.next_below(static_cast<std::uint32_t>(bufs.size()));
    // Lanes in random order or ascending with repeats; or, after a stable
    // sort by (group key, lane), in issue order -- with each lane once per
    // group (order 2) or with a lane's repeats kept (order 3).
    const std::uint32_t order = rng.next_below(4);
    const auto lanes = static_cast<int>(1 + rng.next_below(deep ? 4 : 32));
    std::array<std::uint32_t, WarpMemory::kMaxLanes> reps{};
    std::vector<std::uint64_t> recent;  // addresses this commit loaded
    ops.clear();
    int lane = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      lane = order == 0 ? static_cast<int>(rng.next_below(
                              static_cast<std::uint32_t>(lanes)))
                        : std::min(lanes - 1, lane + (rng.next_below(4) == 0));
      const std::uint32_t kind = rng.next_below(20);
      if (kind < 11) {
        std::uint32_t& r = reps[static_cast<std::size_t>(lane)];
        if (r >= max_reps) continue;
        deepest = std::max(deepest, ++r);
        const BufferId b = bufs[rng.next_below(pool)];
        const std::uint64_t idx = rng.next_below(kLive + 60);
        ops.push_back(Op{Op::kLoad, lane, b, idx, 0});
        recent.push_back(space.addr(b, idx));
        if (rng.next_below(3) == 0) ops.push_back(ops.back());  // elision
      } else if (kind < 15) {
        const BufferId a = arenas[rng.next_below(2)];
        ops.push_back(Op{Op::kStack, lane, -1,
                         space.addr(a, 0) + rng.next_below(1200),
                         4 * (1 + rng.next_below(3))});
      } else if (kind < 17 && !recent.empty()) {
        // Stack traffic at an address a lane also loads from.
        ops.push_back(Op{
            Op::kStack, lane, -1,
            recent[rng.next_below(static_cast<std::uint32_t>(recent.size()))],
            4});
      } else {
        // Raw: anywhere in the space (padding included) or past its end.
        ops.push_back(Op{
            Op::kRaw, lane, -1,
            rng.next_below(static_cast<std::uint32_t>(top + 4096)),
            rng.next_below(40)});
      }
    }
    if (order >= 2) {
      std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
        return a.key() != b.key() ? a.key() < b.key() : a.lane < b.lane;
      });
      if (order == 2)
        ops.erase(std::unique(ops.begin(), ops.end(),
                              [](const Op& a, const Op& b) {
                                return a.key() == b.key() && a.lane == b.lane;
                              }),
                  ops.end());
      if (ops.size() > 2) ++issue_ordered;
    }
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::kLoad:
          fast.lane_load(op.lane, op.buf, op.at);
          ref.lane_load(op.lane, op.buf, op.at);
          break;
        case Op::kStack:
          fast.lane_stack_traffic(op.lane, op.at, op.bytes);
          ref.lane_stack_traffic(op.lane, op.at, op.bytes);
          break;
        case Op::kRaw:
          fast.lane_load_raw(op.lane, op.at, op.bytes);
          ref.lane_load_raw(op.lane, op.at, op.bytes);
          break;
      }
    }
    const std::string where = "seed " + std::to_string(c.seed) + " commit " +
                              std::to_string(commit);
    ASSERT_EQ(fast.commit(), ref.commit()) << where;
    expect_same_stats(fast_stats, ref_stats, where);
    ASSERT_TRUE(l2_fast == l2_ref) << where;
    if (::testing::Test::HasFailure()) return;
  }
  // The lists reached every path they are meant to cover.
  std::uint64_t replayed = 0;
  for (const BufferTraffic& r : ref_stats.memory.rows())
    replayed += r.replayed_loads;
  EXPECT_GT(replayed, 0u);
  EXPECT_EQ(deepest, 10u);
  EXPECT_GT(issue_ordered, 0);
  EXPECT_EQ(ref_stats.shared_loads_elided > 0, c.elide);
  EXPECT_EQ(ref_stats.smem_cache_hits > 0, c.smem);
  EXPECT_EQ(ref_stats.smem_cache_misses > 0, c.smem);
  EXPECT_EQ(ref_stats.l2_hit_transactions > 0, c.l2);
}

TEST(WarpMemoryDifferential, MatchesReferenceOnRandomAccessLists) {
  for (int mask = 0; mask < 8; ++mask)
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      DiffCase c;
      c.l2 = (mask & 1) != 0;
      c.smem = (mask & 2) != 0;
      c.elide = (mask & 4) != 0;
      c.seed = seed * 8 + static_cast<std::uint64_t>(mask);
      run_differential(c);
      if (HasFailure()) return;
    }
}

TEST(WarpMemory, RejectsDevicesItCannotModel) {
  for (const auto& [warp_size, transaction_bytes] :
       {std::pair{32, 96}, std::pair{32, 0}, std::pair{0, 128},
        std::pair{33, 128}, std::pair{64, 128}}) {
    Fixture f;
    f.cfg.warp_size = warp_size;
    f.cfg.transaction_bytes = transaction_bytes;
    EXPECT_THROW(WarpMemory(f.space, f.cfg, nullptr, f.stats),
                 std::invalid_argument)
        << warp_size << " lanes, " << transaction_bytes << " B";
  }
}

}  // namespace
}  // namespace tt
