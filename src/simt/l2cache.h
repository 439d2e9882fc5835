// Set-associative LRU cache model for the device L2.
//
// Each simulated warp owns a private slice of the shared L2 (capacity
// divided by the number of resident warps); this keeps warp simulations
// independent and deterministic under the host's OpenMP scheduling while
// still capturing the reuse that makes repeated upper-tree visits cheap.
//
// Each set is stored as its resident line numbers in recency order, most
// recently used first: a hit rotates the line to the front, a miss drops
// the last (least recently used) line and installs the new one at the
// front. That is exact LRU -- the same hit/miss sequence as stamping every
// way with an access tick and evicting the oldest stamp -- and the common
// case, a hit on a line the warp just touched, ends at the first compare.
#pragma once

#include <cstdint>
#include <vector>

namespace tt {

class L2Cache {
 public:
  // capacity_bytes is rounded down to a power-of-two set count.
  L2Cache(std::size_t capacity_bytes, int line_bytes, int assoc);

  // True on hit. Misses install the line (allocate-on-read).
  bool access(std::uint64_t addr);

  [[nodiscard]] std::size_t num_sets() const { return sets_; }
  [[nodiscard]] int assoc() const { return assoc_; }
  void clear();

  // Same geometry and the same lines resident in the same recency order.
  friend bool operator==(const L2Cache&, const L2Cache&) = default;

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::size_t sets_;
  int line_bytes_;
  int line_shift_;  // log2(line_bytes_) when a power of two, else -1
  int assoc_;
  std::vector<std::uint64_t> lines_;  // [set * assoc_ + rank], MRU first
};

}  // namespace tt
