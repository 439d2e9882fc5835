#include "simt/warp_memory.h"

#include <algorithm>
#include <numeric>

namespace tt {

std::uint64_t WarpMemory::commit() {
  if (shared_load_elision_) elide_shared_loads();

  // Process one (group, rank) pair at a time: rank k holds every lane's
  // k-th access to that group, matching how the hardware replays a load
  // when lanes iterate different trip counts. The group key is the buffer
  // id for ordinary loads and the dedicated stack key for stack traffic
  // (Pending::stack), which keeps the transaction grouping -- and hence
  // the stateful L2 access order -- independent of which arena a stack
  // address resolves to for attribution. Commits recorded in issue order
  // (most of them) are issued straight from pending_.
  const std::span<const Pending> all =
      order_ == Order::kUnordered ? in_group_lane_order() : pending_;
  std::uint64_t dram = 0;
  for (std::size_t i = 0; i < all.size();) {
    const BufferId key = group_key(all[i]);
    std::size_t j = i + 1;
    while (j < all.size() && group_key(all[j]) == key) ++j;
    const std::span<const Pending> group = all.subspan(i, j - i);
    dram += order_ == Order::kIssue ? issue_load(key, false, group)
                                    : issue_ranks(key, group);
    i = j;
  }
  pending_.clear();
  order_ = Order::kIssue;
  return dram;
}

// Shared-load elision (fused kernels): a lane that records the same
// (buffer, address) twice in one window -- both constituents touching the
// same node record -- is served by a single load. An access is dropped
// when the lane's nearest earlier access with the same (buffer, address)
// is an ordinary load; stack traffic is never dropped, and a stack access
// in between keeps the next load (stack pushes are distinct writes even
// when a slot address repeats). The survivors keep their record order, so
// rank grouping below is unaffected (and order_ still holds).
void WarpMemory::elide_shared_loads() {
  std::array<std::int32_t, kMaxLanes> last;  // lane's latest survivor
  last.fill(-1);
  prev_.resize(pending_.size());
  std::size_t kept = 0;
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    const Pending p = pending_[k];
    if (!p.stack) {
      std::int32_t j = last[p.lane];
      while (j >= 0 && (pending_[static_cast<std::size_t>(j)].buf != p.buf ||
                        pending_[static_cast<std::size_t>(j)].addr != p.addr))
        j = prev_[static_cast<std::size_t>(j)];
      if (j >= 0 && !pending_[static_cast<std::size_t>(j)].stack) {
        stats_->note_shared_load_elided();
        continue;
      }
    }
    prev_[kept] = last[p.lane];
    last[p.lane] = static_cast<std::int32_t>(kept);
    pending_[kept++] = p;
  }
  pending_.resize(kept);
}

// pending_ in issue order -- (group key, lane) ascending, record order
// kept within a lane -- for a commit not recorded that way (most often two
// groups interleaved lane by lane: a stack access and a node load per
// lane): one stable counting sort over (key, lane) buckets. A commit
// touches a few group keys, so they are found by linear search.
std::span<const WarpMemory::Pending> WarpMemory::in_group_lane_order() {
  keys_.clear();
  for (const Pending& p : pending_)
    if (std::find(keys_.begin(), keys_.end(), group_key(p)) == keys_.end())
      keys_.push_back(group_key(p));
  std::sort(keys_.begin(), keys_.end());
  bucket_.assign(keys_.size() * kMaxLanes + 1, 0);
  slot_.resize(pending_.size());
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    const auto g = static_cast<std::uint32_t>(
        std::find(keys_.begin(), keys_.end(), group_key(pending_[k])) -
        keys_.begin());
    slot_[k] = g * kMaxLanes + pending_[k].lane;
    ++bucket_[slot_[k] + 1];
  }
  std::partial_sum(bucket_.begin(), bucket_.end(), bucket_.begin());
  sorted_.resize(pending_.size());
  for (std::size_t k = 0; k < pending_.size(); ++k)
    sorted_[bucket_[slot_[k]]++] = pending_[k];
  return sorted_;
}

// A group whose lanes may record several accesses: ranks in one pass (an
// access's rank is the number of its lane's accesses before it), then a
// stable counting sort by rank -- rank r's accesses, still in lane order,
// fill loads_[rank_end_[r - 1], rank_end_[r]) -- and one load per rank.
std::uint64_t WarpMemory::issue_ranks(BufferId key,
                                      std::span<const Pending> group) {
  std::array<std::uint16_t, kMaxLanes> seen{};
  rank_.resize(group.size());
  std::size_t ranks = 0;
  for (std::size_t k = 0; k < group.size(); ++k) {
    rank_[k] = seen[group[k].lane]++;
    ranks = std::max<std::size_t>(ranks, rank_[k] + 1u);
  }
  rank_end_.assign(ranks, 0);
  for (std::uint16_t r : rank_)
    if (r + 1u < ranks) ++rank_end_[r + 1];
  std::partial_sum(rank_end_.begin(), rank_end_.end(), rank_end_.begin());
  loads_.resize(group.size());
  for (std::size_t k = 0; k < group.size(); ++k)
    loads_[rank_end_[rank_[k]]++] = group[k];

  std::uint64_t dram = 0;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < ranks; ++r) {
    dram += issue_load(key, r > 0,
                       std::span(loads_).subspan(begin, rank_end_[r] - begin));
    begin = rank_end_[r];
  }
  return dram;
}

// One load instruction of group `key` (a replay when `replay`): `load`
// holds its accesses in lane order.
std::uint64_t WarpMemory::issue_load(BufferId key, bool replay,
                                     std::span<const Pending> load) {
  ++stats_->load_instructions;
  // Group-level attribution: the load issue, its replay status and the
  // issued/ideal segment counts all land on the group's buffer (for the
  // stack group: the arena its lowest lane's address resolves to).
  const BufferId attr = key >= 0 ? key : buffer_at(load[0].addr);
  const std::uint64_t ideal = coalesce(load, tb_, segs_);
  BufferTraffic* row = &stats_->memory.row(attr, *space_);
  ++row->load_groups;
  if (replay) ++row->replayed_loads;
  row->issued_segments += segs_.size();
  row->ideal_segments += ideal;
  // A buffer group's segments all charge its row; a stack group's charge
  // the buffer each segment starts in.
  std::uint64_t dram = 0;
  for (const std::uint64_t seg : segs_) {
    const std::uint64_t seg_addr = seg << seg_shift_;
    BufferId sb = key;
    if (key < 0) {
      sb = buffer_at(seg_addr);
      row = &stats_->memory.row(sb, *space_);
    }
    dram += issue_segment(*row, sb, seg_addr);
  }
  return dram;
}

// One 128-byte transaction of buffer `sb` (attribution row `row`): node
// cache, then L2, then DRAM.
std::uint64_t WarpMemory::issue_segment(BufferTraffic& row, BufferId sb,
                                        std::uint64_t seg_addr) {
  // Shared-memory node cache (stackless variants): a hit is served at
  // shared-memory latency and never reaches L2 or DRAM.
  bool smem_miss = false;
  if (smem_cache_ != nullptr) {
    const SmemNodeCache::Lookup c = smem_cache_->lookup(seg_addr);
    if (c == SmemNodeCache::Lookup::kHit) {
      stats_->note_smem_cache_hit();
      stats_->note_mem_stall(cfg_->c_smem);
      charge_segment(row, sb, seg_addr, Outcome::kSmemHit, false);
      return 0;
    }
    if (c == SmemNodeCache::Lookup::kMiss) {
      stats_->note_smem_cache_miss();
      smem_miss = true;
    }
  }
  if (l2_ != nullptr && l2_->access(seg_addr)) {
    ++stats_->l2_hit_transactions;
    stats_->note_mem_stall(cfg_->c_l2hit);
    charge_segment(row, sb, seg_addr, Outcome::kL2Hit, smem_miss);
    return 0;
  }
  ++stats_->dram_transactions;
  stats_->dram_bytes += tb_;
  charge_segment(row, sb, seg_addr, Outcome::kDram, smem_miss);
  return 1;
}

// Attribution charge for one issued segment: the row of the owning buffer
// takes the transaction outcome and its stall cycles; buffers with field
// metadata additionally split the charge across fields by byte overlap.
// Shares are k/tb with tb a power of two, so every accumulated value is an
// exact dyadic rational and the table's sums reconcile with the aggregate
// counters exactly (and k * (1/tb) is k/tb exactly).
void WarpMemory::charge_segment(BufferTraffic& row, BufferId sb,
                                std::uint64_t lo, Outcome out,
                                bool smem_miss) {
  if (smem_miss) ++row.smem_cache_misses;
  double stall = 0;
  switch (out) {
    case Outcome::kSmemHit:
      ++row.smem_cache_hits;
      stall = cfg_->c_smem;
      break;
    case Outcome::kL2Hit:
      ++row.l2_hit_transactions;
      stall = cfg_->c_l2hit;
      break;
    case Outcome::kDram:
      ++row.dram_transactions;
      row.dram_bytes += tb_;
      break;
  }
  row.mem_stall_cycles += stall;
  if (sb < 0 || row.fields.empty()) return;
  // row.fields mirrors space_->fields(sb) in order, plus the trailing
  // "(other)" share for unannotated bytes (intra-element padding and the
  // segment tail past the buffer's live extent).
  const std::uint32_t* ov = field_bytes(sb, lo, row.fields.size());
  const double per_byte = 1.0 / static_cast<double>(tb_);
  for (std::size_t f = 0; f < row.fields.size(); ++f) {
    if (ov[f] == 0) continue;
    FieldTraffic& ft = row.fields[f];
    const double share = static_cast<double>(ov[f]) * per_byte;
    ft.transactions += share;
    switch (out) {
      case Outcome::kSmemHit: ft.smem_cache_hits += share; break;
      case Outcome::kL2Hit: ft.l2_hit += share; break;
      case Outcome::kDram:
        ft.dram += share;
        ft.dram_bytes += static_cast<double>(ov[f]);
        break;
    }
    ft.mem_stall_cycles += stall * share;
  }
}

// Bytes of segment [lo, lo + tb) in each of buffer b's n - 1 fields, then
// the "(other)" remainder. Segments inside the live extent read (and on
// first use fill) the phase table; the rest -- a tail past the live
// extent -- are computed directly.
const std::uint32_t* WarpMemory::field_bytes(BufferId b, std::uint64_t lo,
                                             std::size_t n) {
  constexpr std::uint64_t kMaxPhases = 1024;
  const auto id = static_cast<std::size_t>(b);
  if (id >= layouts_.size()) layouts_.resize(id + 1);
  FieldLayout& t = layouts_[id];
  if (!t.ready) {
    t.ready = true;
    t.base = space_->addr(b, 0);
    t.end = space_->live_end(b);
    const std::uint64_t e = space_->elem_bytes(b);
    const std::uint64_t phases = e / std::gcd(e, std::uint64_t{tb_});
    if (phases <= kMaxPhases) {
      t.phases = phases;
      t.bytes.assign(phases * n, kUnbuilt);
    }
  }
  std::uint32_t* out;
  if (t.phases > 0 && lo >= t.base && lo + tb_ <= t.end) {
    out = &t.bytes[((lo - t.base) >> seg_shift_) % t.phases * n];
    if (out[0] != kUnbuilt) return out;
  } else {
    edge_bytes_.resize(n);
    out = edge_bytes_.data();
  }
  std::uint64_t claimed = 0;
  for (std::size_t f = 0; f + 1 < n; ++f) {
    out[f] = static_cast<std::uint32_t>(
        space_->field_overlap(b, f, lo, lo + tb_));
    claimed += out[f];
  }
  out[n - 1] = static_cast<std::uint32_t>(tb_ - claimed);
  return out;
}

}  // namespace tt
