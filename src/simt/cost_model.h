// Event counts -> simulated time.
//
// Dual-bottleneck (roofline-style) model: with tens of resident warps per
// SM, latency is hidden and the kernel is limited either by warp-instruction
// issue (each SM retires about one warp-wide instruction per cycle) or by
// DRAM throughput. Divergence and serialization show up as extra
// instruction cycles; lost coalescing shows up as extra transactions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "simt/device_config.h"
#include "simt/kernel_stats.h"

namespace tt {

struct TimeBreakdown {
  double compute_ms = 0;
  double memory_ms = 0;
  // Serial prologue before the kernel: the auto_select sampler's launch
  // (core/launch.h charge_sampling); 0 for every other launch.
  double select_ms = 0;
  double total_ms = 0;  // select_ms + kernel_ms()
  bool memory_bound = false;  // memory_ms > compute_ms
  // Makespan / ideal-balance ratio when per-warp cycles were provided
  // (1.0 = perfectly balanced warps).
  double imbalance = 1.0;

  // The kernel's own time, prologue excluded: bit for bit the total_ms of
  // a launch of the same composition that did not sample.
  [[nodiscard]] double kernel_ms() const {
    return std::max(compute_ms, memory_ms);
  }
};

// `n_warps` caps the SMs that can be kept busy (a grid smaller than the SM
// count cannot use the whole chip); 0 means "assume a full grid".
TimeBreakdown estimate_time(const KernelStats& stats, const DeviceConfig& cfg,
                            std::size_t n_warps = 0);

// Hardware block scheduling: warps land on SMs round-robin in launch
// order; within an SM, resident warps interleave so the SM finishes when
// the sum of its warps' cycles is retired.
struct SmLoad {
  double makespan = 0;  // the busiest SM's cycles
  double total = 0;     // all SMs' cycles
};
SmLoad round_robin_sm_load(std::span<const double> per_warp_cycles,
                           const DeviceConfig& cfg);

// Imbalance-aware variant (the paper's Geocity discussion: "traversals in
// a warp may have very different lengths, leading to load imbalance and
// hence poor performance", section 6.2). Warps are assigned to SMs in
// launch order (round_robin_sm_load); the compute time becomes the
// slowest SM's share instead of the perfectly-balanced average.
TimeBreakdown estimate_time_balanced(std::span<const double> per_warp_cycles,
                                     const KernelStats& stats,
                                     const DeviceConfig& cfg);

}  // namespace tt
