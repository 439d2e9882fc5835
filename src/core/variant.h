// The GPU execution variants the harness evaluates, as a first-class enum:
// the paper's four fixed compositions, `auto_select` (the section-4.4
// adaptive variant that samples traversal similarity at launch time and
// dispatches to the lockstep or non-lockstep autoropes composition), and
// the stackless family (escape-index ropes and Wald-style index walks
// with the freed shared memory repurposed as a modelled node cache).
// `Variant` is the public way to name a configuration; `GpuMode` is the
// executor-facing knob struct it expands to (plus the section-5.2 ablation
// switches). Harness results, reports and tests all key off `Variant` so a
// variant has exactly one spelling everywhere.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tt {

enum class Variant : std::uint8_t {
  kAutoLockstep = 0,     // autoropes, per-warp union traversal (Figure 8)
  kAutoNolockstep = 1,   // autoropes, per-lane rope stacks (Figure 6/7)
  kRecLockstep = 2,      // recursion over the union traversal (footnote 5)
  kRecNolockstep = 3,    // naive CUDA port: per-lane recursion
  kAutoSelect = 4,       // section 4.4: sample similarity, then dispatch to
                         // kAutoLockstep or kAutoNolockstep per launch
  // Stackless family: no per-warp traversal stack at all. The freed
  // shared-memory bytes become a modelled top-of-tree node cache
  // (simt/smem_cache.h). Eligible only for unguided single-call-set
  // kernels whose tree carries escape-index ropes (StacklessCompatibleKernel
  // in core/static_ropes.h); index_walk additionally needs fanout 2.
  kStacklessLockstep = 5,    // escape-index ropes, per-warp union traversal
  kStacklessNolockstep = 6,  // escape-index ropes, per-lane walks
  kIndexWalk = 7,            // Wald-style index arithmetic, per-lane walks
};

inline constexpr std::size_t kNumVariants = 8;

inline constexpr std::array<Variant, kNumVariants> kAllVariants{
    Variant::kAutoLockstep,      Variant::kAutoNolockstep,
    Variant::kRecLockstep,       Variant::kRecNolockstep,
    Variant::kAutoSelect,        Variant::kStacklessLockstep,
    Variant::kStacklessNolockstep, Variant::kIndexWalk};

[[nodiscard]] constexpr const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kAutoLockstep: return "auto_lockstep";
    case Variant::kAutoNolockstep: return "auto_nolockstep";
    case Variant::kRecLockstep: return "rec_lockstep";
    case Variant::kRecNolockstep: return "rec_nolockstep";
    case Variant::kAutoSelect: return "auto_select";
    case Variant::kStacklessLockstep: return "stackless_lockstep";
    case Variant::kStacklessNolockstep: return "stackless_nolockstep";
    case Variant::kIndexWalk: return "index_walk";
  }
  return "?";
}

// "auto_lockstep" etc. -> Variant; throws std::invalid_argument otherwise.
[[nodiscard]] inline Variant variant_from_name(const std::string& name) {
  for (Variant v : kAllVariants)
    if (name == variant_name(v)) return v;
  std::string valid;
  for (Variant v : kAllVariants) {
    if (!valid.empty()) valid += ", ";
    valid += variant_name(v);
  }
  throw std::invalid_argument("variant_from_name: unknown variant '" + name +
                              "' (valid: " + valid + ")");
}

[[nodiscard]] constexpr bool variant_is_autoropes(Variant v) {
  // auto_select only ever dispatches to an autoropes composition.
  return v == Variant::kAutoLockstep || v == Variant::kAutoNolockstep ||
         v == Variant::kAutoSelect;
}

[[nodiscard]] constexpr bool variant_is_lockstep(Variant v) {
  // auto_select is not *statically* lockstep; its launch-time decision is
  // reported through SelectionInfo instead.
  return v == Variant::kAutoLockstep || v == Variant::kRecLockstep ||
         v == Variant::kStacklessLockstep;
}

[[nodiscard]] constexpr bool variant_is_stackless(Variant v) {
  return v == Variant::kStacklessLockstep ||
         v == Variant::kStacklessNolockstep || v == Variant::kIndexWalk;
}

// A value-type set of Variants: the canonical way to say "these variants
// run" (the harness's --variant filter, bench binaries, tests). Replaces
// the raw std::array<bool, kNumVariants> mask that used to live on
// BenchConfig. Iterable (yields Variant in enum order) and parseable from
// the same CSV spelling the --variant CLI flag accepts.
class VariantSet {
 public:
  constexpr VariantSet() = default;

  [[nodiscard]] static constexpr VariantSet all() {
    VariantSet s;
    for (Variant v : kAllVariants) s.add(v);
    return s;
  }
  [[nodiscard]] static constexpr VariantSet none() { return VariantSet{}; }
  [[nodiscard]] static constexpr VariantSet only(Variant v) {
    return VariantSet{}.add(v);
  }
  // "all" or a comma-separated list of canonical variant names
  // (variant_from_name rejects unknown spellings, listing the valid ones
  // in its error). This is THE parser behind the --variant flag.
  [[nodiscard]] static VariantSet from_names(const std::string& spec) {
    if (spec == "all") return all();
    VariantSet s;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
      std::size_t comma = spec.find(',', pos);
      std::string tok = spec.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      s.add(variant_from_name(tok));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return s;
  }

  constexpr VariantSet& add(Variant v) {
    bits_ |= static_cast<std::uint8_t>(1u << static_cast<std::size_t>(v));
    return *this;
  }
  constexpr VariantSet& remove(Variant v) {
    bits_ &= static_cast<std::uint8_t>(
        ~(1u << static_cast<std::size_t>(v)));
    return *this;
  }
  [[nodiscard]] constexpr bool contains(Variant v) const {
    return (bits_ & (1u << static_cast<std::size_t>(v))) != 0;
  }
  [[nodiscard]] constexpr std::size_t count() const {
    std::size_t c = 0;
    for (Variant v : kAllVariants) c += contains(v) ? 1 : 0;
    return c;
  }
  [[nodiscard]] constexpr bool empty() const { return bits_ == 0; }

  // Canonical CSV spelling ("all" when every variant is enabled), i.e.
  // from_names(s.to_string()) == s.
  [[nodiscard]] std::string to_string() const {
    if (*this == all()) return "all";
    std::string out;
    for (Variant v : *this) {
      if (!out.empty()) out += ",";
      out += variant_name(v);
    }
    return out;
  }

  friend constexpr bool operator==(VariantSet a, VariantSet b) {
    return a.bits_ == b.bits_;
  }

  class iterator {
   public:
    constexpr iterator(std::uint8_t bits, std::size_t i) : bits_(bits), i_(i) {
      skip();
    }
    constexpr Variant operator*() const { return static_cast<Variant>(i_); }
    constexpr iterator& operator++() {
      ++i_;
      skip();
      return *this;
    }
    friend constexpr bool operator==(iterator a, iterator b) {
      return a.i_ == b.i_;
    }

   private:
    constexpr void skip() {
      while (i_ < kNumVariants && !(bits_ & (1u << i_))) ++i_;
    }
    std::uint8_t bits_;
    std::size_t i_;
  };
  [[nodiscard]] constexpr iterator begin() const { return {bits_, 0}; }
  [[nodiscard]] constexpr iterator end() const { return {bits_, kNumVariants}; }

 private:
  std::uint8_t bits_ = 0;
};

// The launch-time decision record of the auto_select variant: what the
// section-4.4 sampler measured and which composition it dispatched to.
// Carried on GpuRun / VariantResult and exported as the "selection" block
// of the RunReport JSON.
struct SelectionInfo {
  double mean_similarity = 0;      // mean Jaccard over adjacent sampled pairs
  double baseline_similarity = 0;  // mean Jaccard over random pairs
  std::uint64_t samples = 0;       // sampled (pid, pid+1) traversal pairs
  // Each autoropes composition's predicted modelled time for the launch
  // (core/launch.h price_compositions); `chosen` is the cheaper one, ties
  // going to lockstep.
  double predicted_lockstep_ms = 0;
  double predicted_nolockstep_ms = 0;
  Variant chosen = Variant::kAutoNolockstep;  // dispatched composition
  // The sampling launch's modelled cost (core/launch.h
  // sampling_launch_cycles: its busiest SM's cycles), charged as a serial
  // prologue before the dispatched kernel.
  double sampling_cycles = 0;
};

struct GpuMode {
  bool autoropes = true;
  bool lockstep = false;

  // Ablation knobs for the section-5.2 design choices (defaults are the
  // paper's choices). `contiguous_stack` gives each lane a dense private
  // block instead of interleaving, so same-level entries of adjacent lanes
  // never share a 128-byte segment. `lockstep_stack_global` keeps the
  // per-warp lockstep stack in global memory instead of shared memory.
  bool contiguous_stack = false;
  bool lockstep_stack_global = false;

  // Figure 9b's strip-mined grid loop: a finite grid makes each physical
  // warp process several 32-point chunks (pid += gridDim * blockDim),
  // reusing its L2 slice across chunks. 0 = grid big enough for one chunk
  // per warp (the default model); otherwise the physical warp count.
  std::size_t grid_limit = 0;

  // Section 4.4 adaptive selection: when set, every launch path samples
  // `profile_samples` adjacent traversal pairs (2 x profile_samples lanes
  // in warp-aligned runs, core/profiler.h) with a deterministic
  // `profile_seed`, charges the sampling to the cost model, and dispatches
  // to whichever autoropes composition its price predicts is cheaper. The
  // `lockstep` flag above is then decided at launch, not here.
  bool auto_select = false;
  std::size_t profile_samples = 32;
  std::uint64_t profile_seed = 1;

  // Stackless family (escape-index ropes / index arithmetic): no traversal
  // stack is allocated at all, so ensure_stack_arena is skipped and the
  // profiler's `stack` bucket stays at exactly zero. `index_walk` selects
  // the Wald-style arithmetic escape (no rope loads either); otherwise the
  // installed rope array is read per escape (StacklessRope).
  bool stackless = false;
  bool index_walk = false;
  // Shared-memory top-of-tree node cache, modelled in WarpMemory::commit.
  // cache_bytes == 0 means "the bytes the per-warp lockstep stack record
  // used to occupy" (resolved at launch from the geometry); any other
  // value pins the capacity for the ablation sweep.
  bool smem_node_cache = false;
  std::size_t cache_bytes = 0;

  // The canonical spelling of the eight variants.
  [[nodiscard]] static constexpr GpuMode from(Variant v) {
    GpuMode m;
    m.autoropes = variant_is_autoropes(v);
    m.lockstep = variant_is_lockstep(v);
    m.auto_select = v == Variant::kAutoSelect;
    m.stackless = variant_is_stackless(v);
    m.index_walk = v == Variant::kIndexWalk;
    m.smem_node_cache = m.stackless;
    return m;
  }

  [[nodiscard]] constexpr Variant variant() const {
    if (auto_select) return Variant::kAutoSelect;
    if (index_walk) return Variant::kIndexWalk;
    if (stackless)
      return lockstep ? Variant::kStacklessLockstep
                      : Variant::kStacklessNolockstep;
    if (autoropes)
      return lockstep ? Variant::kAutoLockstep : Variant::kAutoNolockstep;
    return lockstep ? Variant::kRecLockstep : Variant::kRecNolockstep;
  }

  // Field-by-field, so a knob added later is part of every comparison
  // (ServingSession keys its warm-replay cache on the whole mode).
  friend constexpr auto operator<=>(const GpuMode&, const GpuMode&) = default;
};

}  // namespace tt
