// Per-warp memory front end: lanes record the addresses their current
// instruction touches, commit() groups them into 128-byte transactions
// (replaying the load once per extra access when lanes need different
// numbers of elements, as the hardware serializes divergent access counts),
// filters them through the warp's L2 slice, and charges the stats.
//
// The commit contract the golden fixtures pin (DESIGN.md section 3.1):
// groups are issued in ascending group-key order (stack and raw traffic
// first, then buffers by id); within a group each rank -- every lane's
// k-th access, lanes ascending -- is one load instruction; a load's
// segments are distinct and ascending, and that is the order they reach
// the node cache and the L2.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "simt/address_space.h"
#include "simt/coalescing.h"
#include "simt/device_config.h"
#include "simt/kernel_stats.h"
#include "simt/l2cache.h"
#include "simt/smem_cache.h"

namespace tt {

class WarpMemory {
 public:
  // Lanes are numbered below kMaxLanes.
  static constexpr int kMaxLanes = 32;

  // Throws std::invalid_argument unless `cfg` is a device this front end
  // models: warp_size in 1..kMaxLanes (lane masks are 32-bit words) and a
  // power-of-two transaction size (segment ids are address shifts, and the
  // attribution shares k/tb are exact only then).
  static void check_device(const DeviceConfig& cfg) {
    if (cfg.warp_size < 1 || cfg.warp_size > kMaxLanes)
      throw std::invalid_argument(
          "DeviceConfig::warp_size must be in 1.." +
          std::to_string(kMaxLanes) + ", got " +
          std::to_string(cfg.warp_size));
    if (cfg.transaction_bytes <= 0 ||
        !std::has_single_bit(static_cast<unsigned>(cfg.transaction_bytes)))
      throw std::invalid_argument(
          "DeviceConfig::transaction_bytes must be a power of two, got " +
          std::to_string(cfg.transaction_bytes));
  }

  // `smem_cache` (stackless variants only) sits in front of the L2 for
  // node-buffer transactions; null means no cache modelled.
  WarpMemory(const GpuAddressSpace& space, const DeviceConfig& cfg,
             L2Cache* l2, KernelStats& stats,
             const SmemNodeCache* smem_cache = nullptr)
      : space_(&space), cfg_(&cfg), l2_(l2), stats_(&stats),
        smem_cache_(smem_cache) {
    check_device(cfg);
    tb_ = static_cast<std::uint32_t>(cfg.transaction_bytes);
    seg_shift_ = std::countr_zero(tb_);
  }

  // Record that `lane` reads element `idx` of `buf` during the current
  // warp-wide load group. A lane may record several accesses to the same
  // buffer (e.g. scanning a leaf bucket); each rank k across lanes becomes
  // one replayed load instruction.
  void lane_load(int lane, BufferId buf, std::uint64_t idx) {
    record(Pending{buf, space_->addr(buf, idx),
                   static_cast<std::uint32_t>(space_->elem_bytes(buf)),
                   static_cast<std::uint16_t>(lane), false});
  }

  // Raw-address variant for addresses no registration covers (tests,
  // cache probes). Grouped with stack traffic and attributed "(unmapped)".
  void lane_load_raw(int lane, std::uint64_t addr, std::uint32_t bytes) {
    record(Pending{kRawBuf, addr, bytes, static_cast<std::uint16_t>(lane),
                   true});
  }

  // Policy-facing entry point for rope-stack / call-frame traffic: the
  // stack policies (core/stack_policy.h) own the address computation and
  // record their push/pop/spill bytes through this, so stack accounting is
  // recognizable at the call site. The pending entry carries the *real*
  // registered BufferId of the arena the address lands in (rope_stack /
  // local_frames, resolved like GpuAddressSpace::buffer_at), so
  // attribution reports stack traffic by name like every other buffer --
  // but commit() still groups it under the dedicated stack key, preserving
  // the exact transaction grouping (and hence the stateful L2 access
  // order) the golden fixtures pin.
  void lane_stack_traffic(int lane, std::uint64_t addr, std::uint32_t bytes) {
    record(Pending{buffer_at(addr), addr, bytes,
                   static_cast<std::uint16_t>(lane), true});
  }

  // Shared-load elision (fused kernels, core/kernel_compose.h): when on,
  // commit() serves duplicate (buffer, address, lane) accesses within one
  // window once, counting the rest as shared_loads_elided. Stack traffic
  // is never elided: pushes are distinct writes even when a slot address
  // repeats. Off by default so monolithic kernels' accounting is
  // untouched.
  void set_shared_load_elision(bool on) { shared_load_elision_ = on; }

  // Issue the recorded accesses and clear. Returns DRAM transactions issued.
  std::uint64_t commit();

  [[nodiscard]] const GpuAddressSpace& space() const { return *space_; }

 private:
  static constexpr BufferId kRawBuf = -2;
  // commit()'s group/sort key: stack traffic keeps the historical -2 key
  // regardless of the arena id it attributes to, so transaction grouping
  // is unchanged by attribution.
  static constexpr BufferId kStackGroup = -2;
  struct Pending {
    BufferId buf;   // attribution identity (may be < 0: unmapped raw)
    std::uint64_t addr;
    std::uint32_t bytes;
    std::uint16_t lane;
    bool stack;     // group under kStackGroup; never elided
  };
  [[nodiscard]] static BufferId group_key(const Pending& p) {
    return p.stack ? kStackGroup : p.buf;
  }
  // How the record order compares with the issue order -- (group key,
  // lane) ascending -- kept up to date as accesses are recorded.
  enum class Order : std::uint8_t {
    kIssue,      // strictly ascending: each group is one load, in order
    kRepeats,    // ascending, but a lane records several accesses in a group
    kUnordered,  // groups interleave or lanes descend somewhere
  };
  void record(const Pending& p) {
    if (!pending_.empty() && order_ != Order::kUnordered) {
      const Pending& q = pending_.back();
      const BufferId a = group_key(q), b = group_key(p);
      if (b < a || (b == a && p.lane < q.lane))
        order_ = Order::kUnordered;
      else if (b == a && p.lane == q.lane)
        order_ = Order::kRepeats;
    }
    pending_.push_back(p);
  }
  enum class Outcome { kSmemHit, kL2Hit, kDram };

  // A field-mapped buffer's per-segment field bytes. A segment wholly
  // inside the live extent overlaps each field by an amount that depends
  // only on where the segment starts within an element, and segment starts
  // cycle through elem_bytes / gcd(elem_bytes, tb) such phases, so each
  // phase is computed once, on first use.
  struct FieldLayout {
    bool ready = false;
    std::uint64_t base = 0, end = 0;  // live extent
    std::uint64_t phases = 0;         // 0: too many to tabulate
    std::vector<std::uint32_t> bytes; // [phase * n + f]; kUnbuilt = not yet
  };
  static constexpr std::uint32_t kUnbuilt = ~std::uint32_t{0};

  void elide_shared_loads();
  [[nodiscard]] std::span<const Pending> in_group_lane_order();
  std::uint64_t issue_ranks(BufferId key, std::span<const Pending> group);
  std::uint64_t issue_load(BufferId key, bool replay,
                           std::span<const Pending> load);
  std::uint64_t issue_segment(BufferTraffic& row, BufferId sb,
                              std::uint64_t seg_addr);
  void charge_segment(BufferTraffic& row, BufferId sb, std::uint64_t lo,
                      Outcome out, bool smem_miss);
  [[nodiscard]] const std::uint32_t* field_bytes(BufferId b, std::uint64_t lo,
                                                 std::size_t n);
  // GpuAddressSpace::buffer_at with the last buffer found remembered:
  // stack traffic lands in one arena, so the search runs once per arena.
  [[nodiscard]] BufferId buffer_at(std::uint64_t a) {
    if (a - hit_base_ < hit_bytes_) return hit_buf_;
    const BufferId b = space_->buffer_at(a);
    if (b >= 0) {
      hit_buf_ = b;
      hit_base_ = space_->addr(b, 0);
      hit_bytes_ = space_->live_end(b) - hit_base_;
    }
    return b;
  }

  const GpuAddressSpace* space_;
  const DeviceConfig* cfg_;
  L2Cache* l2_;  // may be null (L2 modelling off)
  KernelStats* stats_;
  const SmemNodeCache* smem_cache_;  // may be null (no cache modelled)
  bool shared_load_elision_ = false;
  std::uint32_t tb_ = 0;  // transaction (segment) bytes
  int seg_shift_ = 0;     // log2(tb_)
  std::vector<Pending> pending_;
  Order order_ = Order::kIssue;

  // commit() scratch, reused across commits.
  std::vector<Pending> sorted_;          // pending_ in issue order
  std::vector<BufferId> keys_;           // distinct group keys, ascending
  std::vector<std::uint32_t> bucket_;    // (key, lane) counting-sort offsets
  std::vector<std::uint32_t> slot_;      // (key, lane) bucket per access
  std::vector<std::int32_t> prev_;       // elision: lane's previous access
  std::vector<std::uint16_t> rank_;      // rank per access of a group
  std::vector<std::uint32_t> rank_end_;  // rank r's loads end at rank_end_[r]
  std::vector<Pending> loads_;           // a group's accesses, rank-major
  std::vector<std::uint64_t> segs_;
  std::vector<std::uint32_t> edge_bytes_;  // field bytes off the table
  std::vector<FieldLayout> layouts_;       // by BufferId
  BufferId hit_buf_ = -1;
  std::uint64_t hit_base_ = 0, hit_bytes_ = 0;
};

}  // namespace tt
