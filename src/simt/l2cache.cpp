#include "simt/l2cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace tt {

L2Cache::L2Cache(std::size_t capacity_bytes, int line_bytes, int assoc)
    : line_bytes_(line_bytes), assoc_(assoc) {
  if (line_bytes <= 0 || assoc <= 0)
    throw std::invalid_argument("L2Cache: bad geometry");
  line_shift_ = std::has_single_bit(static_cast<unsigned>(line_bytes))
                    ? std::countr_zero(static_cast<unsigned>(line_bytes))
                    : -1;
  std::size_t lines = capacity_bytes / static_cast<std::size_t>(line_bytes);
  std::size_t sets = lines / static_cast<std::size_t>(assoc);
  sets_ = sets == 0 ? 1 : std::bit_floor(sets);
  lines_.assign(sets_ * static_cast<std::size_t>(assoc_), kEmpty);
}

bool L2Cache::access(std::uint64_t addr) {
  const std::uint64_t line =
      line_shift_ >= 0 ? addr >> line_shift_
                       : addr / static_cast<std::uint64_t>(line_bytes_);
  std::uint64_t* set =
      &lines_[(static_cast<std::size_t>(line) & (sets_ - 1)) *
              static_cast<std::size_t>(assoc_)];
  // Move to front in one pass: shift each line down a rank until the
  // accessed line is found (hit) or the LRU line falls off the end (miss).
  std::uint64_t carry = line;
  for (int r = 0; r < assoc_; ++r) {
    const std::uint64_t here = set[r];
    set[r] = carry;
    if (here == line) return true;
    carry = here;
  }
  return false;
}

void L2Cache::clear() { std::fill(lines_.begin(), lines_.end(), kEmpty); }

}  // namespace tt
