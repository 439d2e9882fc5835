// Simulated GPU global address space.
//
// Device-resident arrays (split node structs, point SoA planes, interleaved
// rope stacks) register here and get non-overlapping base addresses; the
// coalescing model then works on real byte addresses, exactly as the
// hardware's memory controller would see them.
//
// Buffers may carry per-element *field metadata* ({name, offset, bytes}
// spans inside one element): the memory-attribution layer
// (simt/memory_attr.h, charged from WarpMemory::commit) uses it to split
// each 128-byte transaction's traffic across the fields it overlaps, which
// is what makes the paper's section-5 usage-based struct splitting
// (nodes0/nodes1) measurable instead of argued.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace tt {

using BufferId = std::int32_t;

// One named byte span inside a buffer element. Fields must be disjoint and
// in-bounds; they need not cover the whole element (uncovered bytes are
// attributed to an implicit "(other)" share by the attribution layer).
struct BufferField {
  std::string name;
  std::uint32_t offset = 0;
  std::uint32_t bytes = 0;
};

class GpuAddressSpace {
 public:
  BufferId register_buffer(std::string name, std::uint64_t elem_bytes,
                           std::uint64_t n_elems) {
    return register_buffer(std::move(name), elem_bytes, n_elems, {});
  }

  // Registration with field metadata. Throws when a field is empty, leaves
  // the element, or overlaps another field -- a wrong field map would make
  // the per-field attribution silently misleading, so it fails loudly.
  BufferId register_buffer(std::string name, std::uint64_t elem_bytes,
                           std::uint64_t n_elems,
                           std::vector<BufferField> fields) {
    if (elem_bytes == 0) throw std::invalid_argument("zero-size element");
    validate_fields(name, elem_bytes, fields);
    Buffer b;
    b.name = std::move(name);
    b.elem_bytes = elem_bytes;
    b.n_elems = n_elems;
    b.fields = std::move(fields);
    // 256-byte alignment, matching cudaMalloc guarantees.
    b.base = (next_ + 255) & ~std::uint64_t{255};
    next_ = b.base + elem_bytes * n_elems;
    buffers_.push_back(std::move(b));
    return static_cast<BufferId>(buffers_.size() - 1);
  }

  // Idempotent variant: repeated launches reuse their scratch allocations
  // (stack arenas, rope tables) instead of leaking fresh address ranges --
  // which also keeps back-to-back simulations bit-deterministic. Matching
  // scans newest-first: when a name was re-registered at a larger size
  // (a new logical generation), a later smaller request must resolve to
  // that latest generation, not to the abandoned first one -- per-field
  // and per-buffer attribution keys off the buffer a launch actually
  // addresses.
  BufferId ensure_buffer(const std::string& name, std::uint64_t elem_bytes,
                         std::uint64_t n_elems) {
    return ensure_buffer(name, elem_bytes, n_elems, {});
  }

  // ensure_buffer with field metadata; `fields` only applies when the call
  // registers (a reused generation keeps its original field map).
  BufferId ensure_buffer(const std::string& name, std::uint64_t elem_bytes,
                         std::uint64_t n_elems,
                         std::vector<BufferField> fields) {
    for (std::size_t i = buffers_.size(); i-- > 0;) {
      const Buffer& b = buffers_[i];
      if (b.name == name && b.elem_bytes == elem_bytes &&
          b.n_elems >= n_elems)
        return static_cast<BufferId>(i);
    }
    return register_buffer(name, elem_bytes, n_elems, std::move(fields));
  }

  [[nodiscard]] std::uint64_t addr(BufferId b, std::uint64_t index) const {
    const Buffer& buf = buffers_[static_cast<std::size_t>(b)];
    return buf.base + index * buf.elem_bytes;
  }
  [[nodiscard]] std::uint64_t elem_bytes(BufferId b) const {
    return buffers_[static_cast<std::size_t>(b)].elem_bytes;
  }
  [[nodiscard]] const std::string& name(BufferId b) const {
    return buffers_[static_cast<std::size_t>(b)].name;
  }
  [[nodiscard]] const std::vector<BufferField>& fields(BufferId b) const {
    return buffers_[static_cast<std::size_t>(b)].fields;
  }
  // One past the last live byte of `b`: its extent is [addr(b, 0), this).
  [[nodiscard]] std::uint64_t live_end(BufferId b) const {
    const Buffer& buf = buffers_[static_cast<std::size_t>(b)];
    return buf.base + buf.elem_bytes * buf.n_elems;
  }
  [[nodiscard]] std::size_t num_buffers() const { return buffers_.size(); }
  [[nodiscard]] std::uint64_t footprint_bytes() const { return next_; }

  // The buffer whose live extent [base, base + elem_bytes * n_elems)
  // contains `a`, or -1 (alignment padding, or an address no registration
  // covers). Bases are strictly increasing in registration order, so this
  // is a binary search. Because bases are 256-byte aligned and transactions
  // are 128 bytes, a 128-byte segment never spans two buffers' live bytes:
  // the segment containing a buffer's first byte starts exactly at its
  // base -- so attributing a whole segment by its start address is exact.
  [[nodiscard]] BufferId buffer_at(std::uint64_t a) const {
    auto it = std::upper_bound(
        buffers_.begin(), buffers_.end(), a,
        [](std::uint64_t x, const Buffer& b) { return x < b.base; });
    if (it == buffers_.begin()) return -1;
    const auto b = static_cast<BufferId>(it - buffers_.begin() - 1);
    return a < live_end(b) ? b : -1;
  }

  // Bytes of field `f` of buffer `b` overlapped by the absolute byte range
  // [lo, hi). Closed form over whole elements plus the partial head/tail,
  // so the per-segment attribution charge stays O(#fields). The range is
  // clamped to the buffer's live extent.
  [[nodiscard]] std::uint64_t field_overlap(BufferId b, std::size_t f,
                                            std::uint64_t lo,
                                            std::uint64_t hi) const {
    const Buffer& buf = buffers_[static_cast<std::size_t>(b)];
    const BufferField& fld = buf.fields[f];
    const std::uint64_t end = buf.base + buf.elem_bytes * buf.n_elems;
    lo = std::max(lo, buf.base);
    hi = std::min(hi, end);
    if (lo >= hi) return 0;
    const std::uint64_t E = buf.elem_bytes;
    const std::uint64_t ka = (lo - buf.base) / E, ra = (lo - buf.base) % E;
    const std::uint64_t kb = (hi - 1 - buf.base) / E;
    const std::uint64_t rb = hi - buf.base - kb * E;  // in (0, E]
    if (ka == kb) return prefix_bytes(fld, rb) - prefix_bytes(fld, ra);
    return (fld.bytes - prefix_bytes(fld, ra)) + (kb - ka - 1) * fld.bytes +
           prefix_bytes(fld, rb);
  }

 private:
  // Bytes of `fld` inside the element prefix [0, x).
  [[nodiscard]] static std::uint64_t prefix_bytes(const BufferField& fld,
                                                  std::uint64_t x) {
    if (x <= fld.offset) return 0;
    return std::min<std::uint64_t>(x - fld.offset, fld.bytes);
  }

  static void validate_fields(const std::string& name,
                              std::uint64_t elem_bytes,
                              const std::vector<BufferField>& fields) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    for (const BufferField& f : fields) {
      if (f.bytes == 0)
        throw std::invalid_argument("buffer '" + name + "': empty field '" +
                                    f.name + "'");
      if (static_cast<std::uint64_t>(f.offset) + f.bytes > elem_bytes)
        throw std::invalid_argument("buffer '" + name + "': field '" +
                                    f.name + "' leaves the element");
      spans.emplace_back(f.offset, static_cast<std::uint64_t>(f.offset) +
                                       f.bytes);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      if (spans[i].first < spans[i - 1].second)
        throw std::invalid_argument("buffer '" + name +
                                    "': overlapping fields");
  }

  struct Buffer {
    std::string name;
    std::uint64_t base = 0;
    std::uint64_t elem_bytes = 0;
    std::uint64_t n_elems = 0;
    std::vector<BufferField> fields;
  };
  std::vector<Buffer> buffers_;
  std::uint64_t next_ = 0;
};

}  // namespace tt
