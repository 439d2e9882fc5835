#include "simt/cost_model.h"

#include <algorithm>
#include <vector>

namespace tt {

TimeBreakdown estimate_time(const KernelStats& stats, const DeviceConfig& cfg,
                            std::size_t n_warps) {
  TimeBreakdown t;
  // instr_cycles accumulates per-warp serial cycles across all warps; the
  // device retires warps across num_sms SMs in parallel (resident warps
  // overlap to hide latency, but issue bandwidth is one warp-instruction
  // per SM-cycle, which the per-cycle costs already express). A grid with
  // fewer warps than SMs cannot occupy the whole chip.
  double usable_sms = static_cast<double>(cfg.num_sms);
  if (n_warps > 0 && n_warps < static_cast<std::size_t>(cfg.num_sms))
    usable_sms = static_cast<double>(n_warps);
  double cycles_per_ms = cfg.clock_ghz * 1e6;
  t.compute_ms = stats.instr_cycles / (usable_sms * cycles_per_ms);
  double bytes_per_ms = cfg.mem_bandwidth_gbps * 1e6;  // 1 GB/s = 1e6 B/ms
  t.memory_ms = static_cast<double>(stats.dram_bytes) / bytes_per_ms;
  t.total_ms = t.kernel_ms();
  t.memory_bound = t.memory_ms > t.compute_ms;
  return t;
}

SmLoad round_robin_sm_load(std::span<const double> per_warp_cycles,
                           const DeviceConfig& cfg) {
  std::vector<double> sm_cycles(static_cast<std::size_t>(cfg.num_sms), 0.0);
  for (std::size_t w = 0; w < per_warp_cycles.size(); ++w)
    sm_cycles[w % sm_cycles.size()] += per_warp_cycles[w];
  SmLoad load;
  for (double c : sm_cycles) {
    load.makespan = std::max(load.makespan, c);
    load.total += c;
  }
  return load;
}

TimeBreakdown estimate_time_balanced(std::span<const double> per_warp_cycles,
                                     const KernelStats& stats,
                                     const DeviceConfig& cfg) {
  TimeBreakdown t = estimate_time(stats, cfg, per_warp_cycles.size());
  if (per_warp_cycles.empty()) return t;

  const SmLoad load = round_robin_sm_load(per_warp_cycles, cfg);
  double busy_sms = std::min<double>(
      static_cast<double>(cfg.num_sms),
      static_cast<double>(per_warp_cycles.size()));
  double ideal = load.total / busy_sms;
  t.imbalance = ideal > 0 ? load.makespan / ideal : 1.0;

  double cycles_per_ms = cfg.clock_ghz * 1e6;
  t.compute_ms = load.makespan / cycles_per_ms;
  t.total_ms = t.kernel_ms();
  t.memory_bound = t.memory_ms > t.compute_ms;
  return t;
}

}  // namespace tt
