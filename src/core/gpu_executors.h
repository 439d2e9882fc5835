// GPU-simulated executors: the paper's four fixed variants, each a
// declarative StackPolicy x ConvergencePolicy composition driven by the
// shared WarpEngine core, plus the section-4.4 adaptive variant that
// picks between the two autoropes compositions at launch time:
//
//   variant          stack policy    convergence policy
//   ---------------  --------------  ---------------------------
//   auto_nolockstep  LaneRopeStack   LoopHeadReconvergence
//   auto_lockstep    WarpStack       WarpAndTruncation
//   rec_nolockstep   CallFrames      MaxDepthCallReconvergence
//   rec_lockstep     CallFrames      WarpAndTruncation
//   auto_select      (sample warps, price auto_lockstep and
//                     auto_nolockstep, dispatch the cheaper; sampling
//                     charged to the cost model)
//   stackless_lockstep    StacklessRope  WarpAndTruncation (shared cursor)
//   stackless_nolockstep  StacklessRope  LoopHeadReconvergence
//   index_walk            IndexWalk      LoopHeadReconvergence
//
// The stackless three need a StacklessCompatibleKernel (static_ropes.h)
// and allocate no stack arena; the freed shared memory backs a modelled
// top-of-tree node cache (simt/smem_cache.h).
//
// The WarpEngine (warp_engine.h) owns the per-warp lifecycle, counters and
// the single trace-emission site; stack policies (stack_policy.h) own
// continuation layout and traffic; convergence policies
// (convergence_policy.h) own the warp schedule. The launch itself --
// arena sizing, Figure 9b grid, the composition table, the per-slot chunk
// loop, the section-4.4 decision and charge -- is the launch engine in
// core/launch.h; run_gpu_sim below is its typed front end, and the
// batched, served and sharded paths drive the same engine.
//
// All variants execute the *same kernel semantics*; only event counts (and
// therefore modelled time) differ. Equivalence across variants is enforced
// by integration tests.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/convergence_policy.h"
#include "core/launch.h"
#include "core/profiler.h"
#include "core/stack_policy.h"
#include "core/static_ropes.h"
#include "core/traversal_kernel.h"
#include "core/variant.h"
#include "core/warp_engine.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "simt/address_space.h"
#include "simt/cost_model.h"
#include "simt/device_config.h"
#include "simt/executor.h"
#include "simt/kernel_stats.h"
#include "simt/warp_memory.h"
#include "util/timer.h"

namespace tt {

template <class K>
struct GpuRun {
  std::vector<typename K::Result> results;
  KernelStats stats;
  TimeBreakdown time;
  std::size_t n_warps = 0;
  // Non-lockstep: per-point node visits. Lockstep: per-warp pop counts
  // (every point of the warp shares the warp's union traversal). Table 2's
  // work-expansion metric combines the two.
  std::vector<std::uint32_t> per_point_visits;
  std::vector<std::uint32_t> per_warp_pops;
  double sim_wall_ms = 0;  // host cost of the simulation (diagnostic)
  // Set only by the auto_select variant: what the section-4.4 sampler
  // measured and which composition the launch was dispatched to.
  std::optional<SelectionInfo> selection;
  // Set when a ProfileSink was passed: the launch's cycle-attribution
  // profile (obs/profile.h), with any auto_select sampling charge folded
  // into the kSelect bucket so reconciles() covers the full launch.
  std::optional<obs::ProfileReport> profile;

  // The paper's "Avg. # Nodes" column.
  [[nodiscard]] double avg_nodes() const {
    if (!per_warp_pops.empty()) {
      double s = 0;
      for (auto v : per_warp_pops) s += v;
      return s / static_cast<double>(per_warp_pops.size());
    }
    double s = 0;
    for (auto v : per_point_visits) s += v;
    return per_point_visits.empty() ? 0 : s / static_cast<double>(per_point_visits.size());
  }
};

// ---------------------------------------------------------------------
// Entry point: simulate the kernel under one GPU variant. `trace` is
// optional: when non-null, the engine emits per-step event records into it
// (see obs/trace.h for the determinism contract). `profile` is optional:
// when non-null, the run's cycle-attribution profile (obs/profile.h) is
// built into GpuRun::profile.
// ---------------------------------------------------------------------
template <TraversalKernel K>
GpuRun<K> run_gpu_sim(const K& k, GpuAddressSpace& space,
                      const DeviceConfig& cfg, GpuMode mode,
                      obs::TraceSink* trace = nullptr,
                      obs::ProfileSink* profile = nullptr) {
  GpuRun<K> out;
  if (mode.auto_select) {
    // Section 4.4: sample a few of the launch's warps, price both
    // autoropes compositions from them and dispatch the cheaper one.
    if (mode.profile_samples == 0)
      throw std::invalid_argument(
          "run_gpu_sim: auto_select needs profile_samples >= 1");
    const ResolvedLaunch r = resolve_auto_select(
        mode,
        profile_similarity(k, mode.profile_samples, mode.profile_seed, cfg,
                           &space),
        k.num_points(), cfg);
    mode = r.mode;
    out.selection = r.selection;
  }
  // One canonical ineligibility spelling shared with the launch API and
  // the harness's "skipped:" rows (core/static_ropes.h).
  const std::string why = kernel_variant_ineligible_reason(k, mode.variant());
  if (!why.empty()) throw std::invalid_argument("run_gpu_sim: " + why);

  TypedLaunchRun<K> run(k, space, cfg, mode, trace, profile, kSoloKernel);
  WallTimer timer;
  std::vector<KernelStats> per_slot = run_warps(
      run.shape.grid, cfg, [&](std::size_t p, KernelStats& stats, L2Cache* l2) {
        run.run_slot(p, stats, l2);
      });
  out.sim_wall_ms = timer.elapsed_ms();
  if (run.overflow.overflowed())
    throw std::runtime_error(
        std::string("run_gpu_sim: rope stack overflow (kernel ") +
        kernel_display_name<K>() + ", variant " + variant_name(mode.variant()) +
        ", warp " + std::to_string(run.overflow.warp()) + ", " +
        std::to_string(run.overflow.entries()) + " entries, stack_bound " +
        std::to_string(run.shape.stack_bound) + ")");
  LaunchTotals t = finish_launch(per_slot, cfg, out.selection, trace, profile);
  out.stats = std::move(t.stats);
  out.time = t.time;
  out.profile = std::move(t.profile);
  out.n_warps = run.shape.n_warps;
  out.results = std::move(run.results);
  out.per_point_visits = std::move(run.per_point_visits);
  out.per_warp_pops = std::move(run.per_warp_pops);
  return out;
}

}  // namespace tt
