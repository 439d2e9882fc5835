// Cycle-attribution profiler: per-layer cost breakdown, per-depth
// divergence histograms and a top-K hot-node table for one GPU launch.
//
// Three pieces:
//
//   ProfileCollector / ProfileSink
//     The collection side. A ProfileCollector aggregates the warp engine's
//     event stream (the same single emit site that feeds WarpTracer) plus
//     a profile-only per-step hook into per-depth divergence bins and a
//     per-node visit table. A ProfileSink owns one collector per OpenMP
//     thread -- the executing thread aggregates locally, and merged()
//     folds the pool with commutative integer sums, so the result is
//     byte-identical under OMP_NUM_THREADS=1 vs N (same contract as
//     TraceSink).
//
//   ProfileReport
//     The exported measurement: the KernelStats cycle-bucket split (one
//     entry per CycleBucket -- which executor layer spent the cycles), the
//     bandwidth model's memory cycles (the cost model's other bottleneck
//     axis, NOT part of the instruction-cycle reconciliation), the
//     per-depth divergence histogram and the hot-node table. The
//     attribution invariant -- bucket_sum() == instr_cycles, exact --
//     holds by construction (see KernelStats::charge) and is pinned by
//     tests/core/variant_fuzz_test.cpp and tools/json_validate.
//
//   write_profile_json
//     The "profile" block (obs/run_report.h), shared by the
//     RunReport exporter and tests.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/trace.h"
#include "simt/device_config.h"
#include "simt/kernel_stats.h"

namespace tt::obs {

class JsonWriter;

// One stack-depth bin of the divergence timeline: how many warp steps ran
// at this depth, with how many active lanes, and how many lane-visits were
// truncated there.
struct ProfileDepthBin {
  std::uint64_t steps = 0;
  std::uint64_t active_lane_sum = 0;
  std::uint64_t truncated_lanes = 0;
  [[nodiscard]] double mean_active() const {
    return steps == 0 ? 0.0
                      : static_cast<double>(active_lane_sum) /
                            static_cast<double>(steps);
  }
};

// One row of the hot-node table: a tree node ranked by how many warp-level
// visit events it received. Only warp-uniform visits contribute (lockstep
// union visits and rec_nolockstep leader-group visits carry the node id;
// the per-lane non-lockstep variant visits distinct nodes per lane, so its
// events are anonymous and the table stays empty -- by design, not a bug).
struct ProfileHotNode {
  std::uint32_t node = 0;
  std::uint64_t warp_visits = 0;
  std::uint64_t active_lane_sum = 0;   // lanes active across those visits
  std::uint64_t truncated_lanes = 0;   // lanes whose visit voted "stop"
  [[nodiscard]] double mean_active_lanes() const {
    return warp_visits == 0 ? 0.0
                            : static_cast<double>(active_lane_sum) /
                                  static_cast<double>(warp_visits);
  }
  [[nodiscard]] double truncation_rate() const {
    return active_lane_sum == 0 ? 0.0
                                : static_cast<double>(truncated_lanes) /
                                      static_cast<double>(active_lane_sum);
  }
};

// Per-thread aggregation state. All fields are integer accumulators, so
// merging collectors is commutative and the merged result is independent
// of OpenMP scheduling.
class ProfileCollector {
 public:
  // Profile-only per-step hook: called once per warp step by every
  // convergence policy (WarpEngine::profile_step), with the step's stack
  // depth and active-lane count. Summed over bins this reconciles exactly
  // with KernelStats::warp_steps / active_lane_sum.
  void on_step(std::uint32_t depth, int active);

  // The warp engine's single emit site forwards every trace event here
  // (WarpEngine::emit). Only kVisit / kTruncate contribute.
  void on_event(TraceEventKind kind, std::uint32_t node, std::uint32_t mask,
                std::uint32_t depth, std::uint32_t aux);

  void merge(const ProfileCollector& o);
  void clear();

  [[nodiscard]] const std::vector<ProfileDepthBin>& depth_bins() const {
    return depth_;
  }
  struct NodeAgg {
    std::uint64_t warp_visits = 0;
    std::uint64_t active_lane_sum = 0;
    std::uint64_t truncated_lanes = 0;
  };
  [[nodiscard]] const std::map<std::uint32_t, NodeAgg>& nodes() const {
    return nodes_;
  }

 private:
  std::vector<ProfileDepthBin> depth_;
  std::map<std::uint32_t, NodeAgg> nodes_;
};

// The per-OpenMP-thread collector pool of one launch (mirrors TraceSink's
// ring pool). begin() is called from the serial part of the launch (the
// TypedLaunchRun constructor, core/launch.h); each executing thread then
// aggregates into its own collector, and merged() folds the pool
// deterministically.
class ProfileSink {
 public:
  // Resets prior contents; `n_threads` sizes the pool.
  void begin(int n_threads);
  [[nodiscard]] ProfileCollector& collector(int thread_id);
  [[nodiscard]] std::size_t n_collectors() const { return pool_.size(); }
  [[nodiscard]] ProfileCollector merged() const;

 private:
  std::vector<ProfileCollector> pool_;
};

// The exported per-launch (or per-variant) profile.
struct ProfileReport {
  // instr_cycles split by CycleBucket (index = static_cast<size_t>(bucket)).
  std::array<double, kNumCycleBuckets> buckets{};
  double instr_cycles = 0;   // reconciliation target: == bucket sum, exact
  // The bandwidth model's cycles for the launch's DRAM traffic (the other
  // axis of the dual-bottleneck cost model; not included in the sum).
  double memory_cycles = 0;
  std::uint64_t warp_steps = 0;       // == sum of depth[].steps, exact
  std::uint64_t active_lane_sum = 0;  // == sum of depth[].active_lane_sum
  std::vector<ProfileDepthBin> depth;      // index = stack depth
  std::vector<ProfileHotNode> hot_nodes;   // sorted: visits desc, node asc
  std::size_t top_k = 16;  // requested table size

  [[nodiscard]] double bucket_sum() const {
    double s = 0;
    for (double v : buckets) s += v;
    return s;
  }
  // The attribution invariant, checked with exact equality: every charge
  // is an integer-valued double, so the sums are exact.
  [[nodiscard]] bool reconciles() const {
    return bucket_sum() == instr_cycles && depth_steps() == warp_steps &&
           depth_active() == active_lane_sum;
  }
  [[nodiscard]] std::uint64_t depth_steps() const;
  [[nodiscard]] std::uint64_t depth_active() const;

  // Timestep accumulation (BH): buckets / cycles / histograms add; the
  // hot-node tables merge by node id and re-rank (an approximation only
  // when a node fell outside a step's top-K -- counts never double).
  void merge(const ProfileReport& o);
};

// Build the report from a launch's merged stats + collector. Call AFTER
// any auto_select sampling charge so the reconciliation covers the full
// launch. `collector` may be null (bucket split only, empty histograms).
[[nodiscard]] ProfileReport make_profile_report(
    const KernelStats& stats, const DeviceConfig& cfg,
    const ProfileCollector* collector = nullptr, std::size_t top_k = 16);

// The "profile" block (see obs/run_report.h).
void write_profile_json(JsonWriter& w, const ProfileReport& p);

// The "memory" block (see obs/run_report.h): the per-buffer /
// per-field traffic attribution of one launch (simt/memory_attr.h),
// buffers sorted by name, fields in registration order plus the implicit
// "(other)" share. The invariants tools/json_validate re-derives -- row
// sums == the variant's aggregate KernelStats counters, field sums ==
// their buffer's row, coalescing efficiency in (0, 1] -- hold with exact
// equality (every accumulated value is a multiple of 2^-7, see
// simt/memory_attr.h).
void write_memory_json(JsonWriter& w, const MemoryAttribution& m);

// Human-facing rendering of the same table: the per-buffer hot rows of
// `m` ranked by DRAM transactions (desc, name tiebreak), at most `top_k`.
[[nodiscard]] std::vector<const BufferTraffic*> hot_buffers(
    const MemoryAttribution& m, std::size_t top_k);

}  // namespace tt::obs
