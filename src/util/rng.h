// Seeded, reproducible pseudo-random number generation.
//
// All stochastic pieces of the library (input generators, samplers,
// property tests) draw from Pcg32 so every experiment is replayable from a
// single 64-bit seed. PCG-XSH-RR 64/32 (O'Neill 2014): small state, good
// statistical quality, cheap enough to sit inside generator inner loops.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace tt {

class Pcg32 {
 public:
  // Streams with distinct `seq` values are independent even for equal seeds.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t seq = 0xda3e39cb94b95bdbULL) {
    state_ = 0U;
    inc_ = (seq << 1u) | 1u;
    next_u32();
    state_ += seed;
    next_u32();
  }

  std::uint32_t next_u32() {
    std::uint64_t old = state_;
    state_ = old * kMult + inc_;
    auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  // Jump `delta` steps ahead, to the state `delta` next_u32() calls would
  // leave, in O(log delta) (Brown, "Random number generation with
  // arbitrary strides", 1994): the LCG's delta-fold composition is again
  // an affine map, built by squaring. A cached normal() variate stays.
  void advance(std::uint64_t delta) {
    std::uint64_t mult = kMult, plus = inc_;
    std::uint64_t acc_mult = 1, acc_plus = 0;
    for (; delta != 0; delta >>= 1) {
      if (delta & 1u) {
        acc_mult *= mult;
        acc_plus = acc_plus * mult + plus;
      }
      plus *= mult + 1;
      mult *= mult;
    }
    state_ = acc_mult * state_ + acc_plus;
  }

  bool has_cached_normal() const { return has_cached_normal_; }

  // Same stream at the same position with the same cached variate, so
  // both generators draw the same values from here on.
  friend bool operator==(const Pcg32& a, const Pcg32& b) {
    return a.state_ == b.state_ && a.inc_ == b.inc_ &&
           a.has_cached_normal_ == b.has_cached_normal_ &&
           (!a.has_cached_normal_ ||
            std::bit_cast<std::uint64_t>(a.cached_normal_) ==
                std::bit_cast<std::uint64_t>(b.cached_normal_));
  }

  std::uint64_t next_u64() {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  // Uniform in [0, bound) without modulo bias (Lemire rejection).
  std::uint32_t next_below(std::uint32_t bound) {
    std::uint64_t m = static_cast<std::uint64_t>(next_u32()) * bound;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < bound) {
      std::uint32_t t = (0u - bound) % bound;
      while (lo < t) {
        m = static_cast<std::uint64_t>(next_u32()) * bound;
        lo = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  // Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  float next_float() {
    return static_cast<float>(next_u32() >> 8) * 0x1.0p-24f;
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  // Standard normal via Box-Muller (cached second variate).
  double normal();
  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  // std::uniform_random_bit_generator interface, so Pcg32 plugs into
  // std::shuffle and friends.
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next_u32(); }

 private:
  static constexpr std::uint64_t kMult = 6364136223846793005ULL;

  std::uint64_t state_;
  std::uint64_t inc_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace tt
