// Memory-coalescing model (paper section 2.2): threads of a warp achieve
// full throughput only when their accesses fall in the same 128-byte
// segments; the hardware groups a warp's addresses into as few segment
// transactions as possible. `coalesce` reproduces that grouping.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <stdexcept>
#include <string>
#include <vector>

namespace tt {

struct LaneAccess {
  std::uint64_t addr = 0;
  std::uint32_t bytes = 0;
};

// Most accesses one load may carry: one per lane, and a warp has at most
// 32 lanes. The limit sizes coalesce()'s on-stack index order.
inline constexpr std::size_t kMaxLoadAccesses = 64;

// One warp-wide load's transactions, from a single sweep in address order.
// `accesses` holds at most kMaxLoadAccesses elements with `addr` and
// `bytes` members (LaneAccess, or WarpMemory's pending records); more
// throw std::length_error. The distinct `segment_bytes`-sized segments
// they touch go to `segments_out` (cleared first) in ascending order --
// the order the transactions reach the L2 -- and the return value is the
// ideal segment count: the union of the accessed byte ranges divided by
// the segment size, rounded up. Zero-byte accesses touch no segment.
// `segment_bytes` must be a power of two.
//
// Address order is the recorded order when that already ascends (as it
// does for coalesced loads); otherwise the sweep follows an index order
// built by one counting pass over 64 address buckets and an insertion
// pass, which costs no mispredicted branch per comparison the way a
// comparison sort of scattered addresses does.

template <std::ranges::random_access_range Accesses>
std::uint64_t coalesce(const Accesses& accesses, std::uint32_t segment_bytes,
                       std::vector<std::uint64_t>& segments_out) {
  const auto first = std::ranges::begin(accesses);
  const auto n = static_cast<std::size_t>(std::ranges::size(accesses));
  if (n > kMaxLoadAccesses)
    throw std::length_error("coalesce: more than " +
                            std::to_string(kMaxLoadAccesses) +
                            " accesses in one load");
  bool ascending = true;
  std::uint64_t min_addr = n > 0 ? first[0].addr : 0, max_addr = min_addr;
  for (std::size_t i = 1; i < n; ++i) {
    ascending = ascending && first[i - 1].addr <= first[i].addr;
    min_addr = std::min(min_addr, first[i].addr);
    max_addr = std::max(max_addr, first[i].addr);
  }
  std::array<std::uint8_t, kMaxLoadAccesses> order;
  if (!ascending) {
    const int shift =
        std::max(0, static_cast<int>(std::bit_width(max_addr - min_addr)) - 6);
    std::array<std::uint8_t, kMaxLoadAccesses> bucket;
    std::array<std::uint8_t, 65> at{};
    for (std::size_t i = 0; i < n; ++i) {
      bucket[i] =
          static_cast<std::uint8_t>((first[i].addr - min_addr) >> shift);
      ++at[bucket[i] + 1u];
    }
    for (std::size_t b = 1; b < at.size(); ++b) at[b] += at[b - 1];
    for (std::size_t i = 0; i < n; ++i)
      order[at[bucket[i]]++] = static_cast<std::uint8_t>(i);
    for (std::size_t i = 1; i < n; ++i) {  // within-bucket order
      const std::uint8_t x = order[i];
      std::size_t j = i;
      for (; j > 0 && first[order[j - 1]].addr > first[x].addr; --j)
        order[j] = order[j - 1];
      order[j] = x;
    }
  }

  const int shift = std::countr_zero(segment_bytes);
  segments_out.clear();
  // Starts ascend, so a range's segments below `next_seg` were already
  // emitted by an earlier range that reaches at least as far.
  std::uint64_t next_seg = 0, union_bytes = 0, lo = 0, hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = first[ascending ? i : order[i]];
    const std::uint64_t end = a.addr + a.bytes;
    if (i == 0 || a.addr > hi) {
      union_bytes += hi - lo;
      lo = a.addr;
      hi = end;
    } else {
      hi = std::max(hi, end);
    }
    if (a.bytes == 0) continue;
    const std::uint64_t last = (end - 1) >> shift;
    for (std::uint64_t s = std::max(a.addr >> shift, next_seg); s <= last; ++s)
      segments_out.push_back(s);
    next_seg = std::max(next_seg, last + 1);
  }
  union_bytes += hi - lo;
  return (union_bytes + segment_bytes - 1) >> shift;
}

}  // namespace tt
