// The launch engine: one simulated kernel launch over the layered GPU
// executor, behind a type-erased API. Every entry point drives it --
// run_gpu_sim (gpu_executors.h) for a typed solo run, run_launch_pool
// (serving.h) for a residency of several launches, run_sharded
// (device_group.h) for one launch split across devices -- so a launch's
// simulation is the same code however it is issued (the byte-identity
// contract of batched, served and sharded runs rests on this).
//
// Four pieces (DESIGN.md section 3):
//
//   launch_geometry / make_warp_arenas / run_chunk
//     The variant-independent launch math -- warp counts, Figure 9b grid,
//     stack-arena sizing and addressing, and the StackPolicy x
//     ConvergencePolicy composition table.
//
//   sampling_launch_cycles / price_compositions / resolve_auto_select /
//   dispatched_mode / charge_sampling / finish_launch
//     The section-4.4 decision taken before a launch (sampler report ->
//     both compositions' predicted time -> resolved GpuMode +
//     SelectionInfo), the concrete mode a decided launch re-runs as, the
//     sampler's cost (its sampling launch, charged as a serial prologue),
//     and the epilogue every launch shares: merge the per-slot counters,
//     run the cost model, charge the sampler, build the profile.
//
//   LaunchRun / TypedLaunchRun<K>
//     One launch's execution state: the only place that sizes the stack
//     arena, registers the rope buffer and builds the node cache, and the
//     one per-slot chunk loop (run_warp_slot) behind both the dense and
//     the sharded slot walks.
//
//   KernelHandle / TypedKernelHandle<K>, LaunchSpec / LaunchResult
//     Virtual-dispatch wrapper over the TraversalKernel concept, so a
//     heterogeneous set of launches lives in one container; and one
//     element of a batch plus its type-erased measurement (raw result
//     bytes + isolated KernelStats / TimeBreakdown / SelectionInfo).
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <omp.h>

#include "core/convergence_policy.h"
#include "core/profiler.h"
#include "core/stack_policy.h"
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
#include "simt/l2cache.h"
#include "simt/smem_cache.h"
#include "simt/warp_memory.h"

namespace tt {

// A TraversalKernel that names itself. kernel_display_name()'s
// "unnamed-kernel" fallback is fine for ad-hoc micro kernels running
// through run_gpu_sim, but the type-erased handle API requires the real
// name: batched overflow/error strings are prefixed with it.
template <class K>
concept NamedTraversalKernel =
    TraversalKernel<K> && requires {
      { K::kName } -> std::convertible_to<const char*>;
    };

// ---------------------------------------------------------------------
// Launch geometry and the composition table.
// ---------------------------------------------------------------------

struct LaunchGeometry {
  std::size_t n = 0;        // points
  std::size_t n_warps = 0;  // logical 32-point chunks
  std::size_t grid = 0;     // physical warps (Figure 9b strip-mining)
  int stack_bound = 0;
  std::uint32_t entry_bytes = 0;   // interleaved rope-stack entry
  std::uint64_t per_warp_span = 0; // stack-arena bytes per physical warp
};

// Figure 9b's strip-mined grid loop: with a finite grid, physical warp p
// processes chunks p, p + grid, p + 2*grid, ... and keeps its L2 slice
// (and stack arena) across chunks. Uniform across all compositions.
[[nodiscard]] inline std::size_t launch_grid(const GpuMode& mode,
                                             std::size_t n_warps) {
  return mode.grid_limit > 0 ? std::min(mode.grid_limit, n_warps) : n_warps;
}

// Every launch path sizes its launch here, before any slot fans out, so
// a device the memory front end cannot model is rejected here rather than
// inside the OpenMP slot loop.
template <TraversalKernel K>
[[nodiscard]] LaunchGeometry launch_geometry(const K& k, const DeviceConfig& cfg,
                                       const GpuMode& mode) {
  WarpMemory::check_device(cfg);
  LaunchGeometry s;
  s.n = k.num_points();
  s.n_warps = (s.n + static_cast<std::size_t>(cfg.warp_size) - 1) /
              static_cast<std::size_t>(cfg.warp_size);
  s.stack_bound = k.stack_bound();
  s.entry_bytes = arena_entry_bytes<K>(mode.lockstep);
  s.per_warp_span = warp_arena_span(s.stack_bound, s.entry_bytes, cfg);
  s.grid = launch_grid(mode, s.n_warps);
  // The stackless family keeps no continuations at all: no arena bytes,
  // and ensure_stack_arena must not be called for these launches.
  if (mode.stackless) s.per_warp_span = 0;
  return s;
}

// The launch's stack arena (idempotent per address space + policy family).
[[nodiscard]] inline BufferId ensure_stack_arena(GpuAddressSpace& space,
                                                 const GpuMode& mode,
                                                 const LaunchGeometry& s) {
  return space.ensure_buffer(mode.autoropes ? "rope_stack" : "local_frames",
                             1, s.per_warp_span * s.n_warps);
}

// Shared-memory bytes the stackless node cache may occupy: what the
// per-warp lockstep stack records (12 bytes per level, stack_bound + 4
// levels, one stack per resident warp) used to take from the SM, capped
// at the SM's shared memory. mode.cache_bytes pins an explicit capacity
// for the ablation sweep.
[[nodiscard]] inline std::size_t stackless_cache_bytes(
    const DeviceConfig& cfg, const LaunchGeometry& s, const GpuMode& mode) {
  if (mode.cache_bytes > 0) return mode.cache_bytes;
  const std::size_t freed =
      static_cast<std::size_t>(cfg.resident_warps_per_sm) *
      static_cast<std::size_t>(s.stack_bound + 4) * 12;
  return std::min<std::size_t>(freed,
                               static_cast<std::size_t>(cfg.shared_mem_per_sm));
}

// Launch-scope context of a stackless launch: the installed rope array's
// buffer id in the launch's address space, and the (optional) modelled
// shared-memory node cache every slot's WarpMemory checks before L2.
struct StacklessCtx {
  std::int32_t rope_buf = -1;
  const SmemNodeCache* cache = nullptr;
};

// Stack-policy instances addressing one physical warp's arena slice.
struct WarpArenas {
  LaneRopeStack lane_stack;
  WarpStack warp_stack;
  CallFrames frames;
};

[[nodiscard]] inline WarpArenas make_warp_arenas(const LaunchGeometry& s,
                                                 const DeviceConfig& cfg,
                                                 const GpuMode& mode,
                                                 std::uint64_t base) {
  WarpArenas a;
  a.lane_stack = LaneRopeStack{
      base, s.entry_bytes, static_cast<std::uint32_t>(cfg.warp_size),
      static_cast<std::uint32_t>(s.stack_bound + 4), mode.contiguous_stack};
  a.warp_stack = WarpStack{
      base,
      base + static_cast<std::uint64_t>(s.stack_bound + 4) *
                 static_cast<std::uint64_t>(cfg.warp_size) * s.entry_bytes,
      s.entry_bytes, static_cast<std::uint32_t>(cfg.warp_size),
      mode.lockstep_stack_global};
  a.frames = CallFrames{base, static_cast<std::uint32_t>(cfg.frame_bytes),
                        static_cast<std::uint32_t>(cfg.warp_size)};
  return a;
}

// The composition table: which StackPolicy x ConvergencePolicy pair a
// (resolved) GpuMode dispatches one chunk to. auto_select never reaches
// here -- every launch path resolves it first (resolve_auto_select). The
// stackless cases need the launch's StacklessCtx (rope buffer id) and an
// eligible kernel; callers enforce eligibility up front, so hitting the
// ineligible path here is a composition-table bug.
template <TraversalKernel K>
void run_chunk(WarpEngine<K>& eng, const GpuMode& mode, const WarpArenas& a,
               const StacklessCtx& sctx) {
  switch (mode.variant()) {
    case Variant::kAutoNolockstep:
      LoopHeadReconvergence{}.run(eng, a.lane_stack);
      break;
    case Variant::kAutoLockstep:
      WarpAndTruncation{}.run(eng, a.warp_stack);
      break;
    case Variant::kRecNolockstep:
      MaxDepthCallReconvergence{}.run(eng, a.frames);
      break;
    case Variant::kRecLockstep:
      WarpAndTruncation{}.run(eng, a.frames);
      break;
    case Variant::kStacklessLockstep:
    case Variant::kStacklessNolockstep:
      if constexpr (StacklessCompatibleKernel<K>) {
        if (sctx.rope_buf < 0)
          throw std::logic_error(
              "run_chunk: stackless variant launched without a rope buffer");
        const StacklessRope sp{&eng.kernel().ropes(), sctx.rope_buf};
        if (mode.lockstep)
          WarpAndTruncation{}.run(eng, sp);
        else
          LoopHeadReconvergence{}.run(eng, sp);
      } else {
        throw std::logic_error(
            "run_chunk: stackless variant on an ineligible kernel");
      }
      break;
    case Variant::kIndexWalk:
      if constexpr (kernel_index_walk_eligible<K>) {
        LoopHeadReconvergence{}.run(eng, IndexWalk{&eng.kernel().ropes()});
      } else {
        throw std::logic_error(
            "run_chunk: index_walk on an ineligible kernel");
      }
      break;
    case Variant::kAutoSelect:
      throw std::logic_error(
          "run_chunk: auto_select reached the composition switch");
  }
}

// ---------------------------------------------------------------------
// Section 4.4: the launch decision and its charge, written once for
// every launch path.
// ---------------------------------------------------------------------

struct ResolvedLaunch {
  GpuMode mode;  // auto_select replaced by the dispatched composition
  SelectionInfo selection;
};

// The concrete mode a launch of `requested` dispatched when it executed
// `executed`: an auto_select request becomes that autoropes composition
// with every ablation knob kept (grid_limit, stack placement, ...), so a
// caller that re-runs a decided launch -- the sharded devices, a serving
// session's later admissions -- runs exactly what the decision chose and
// never samples again. Any other mode is already concrete and comes back
// unchanged.
[[nodiscard]] constexpr GpuMode dispatched_mode(GpuMode requested,
                                                Variant executed) {
  if (!requested.auto_select) return requested;
  requested.auto_select = false;
  requested.autoropes = variant_is_autoropes(executed);
  requested.lockstep = variant_is_lockstep(executed);
  return requested;
}

// The sampler's modelled cost: the small launch a GPU would run before
// the traversal kernel. Its lanes are the sampled traversals in
// ProfileReport order (sample s on lanes 2s and 2s+1), packed into
// non-lockstep warps of cfg.warp_size lanes. A warp runs as many loop
// iterations as its longest lane has visits, each costing c_visit +
// c_step, and the warps land on SMs round-robin like any launch's; the
// charge is the busiest SM's cycles. Built from the visit counts the
// sampler recorded, so nothing is re-simulated: O(samples) host work.
[[nodiscard]] inline double sampling_launch_cycles(const ProfileReport& p,
                                                   const DeviceConfig& cfg) {
  const auto ws = static_cast<std::size_t>(cfg.warp_size);
  const std::vector<std::uint32_t>& lanes = p.traversal_visits;
  std::vector<double> per_warp((lanes.size() + ws - 1) / ws, 0.0);
  for (std::size_t lane = 0; lane < lanes.size(); ++lane)
    per_warp[lane / ws] =
        std::max(per_warp[lane / ws], static_cast<double>(lanes[lane]));
  for (double& c : per_warp) c *= cfg.c_visit + cfg.c_step;
  return round_robin_sm_load(per_warp, cfg).makespan;
}

// Both autoropes compositions' predicted modelled time for a launch of
// `n_warps` chunks on a `grid`-warp grid, priced from the sampled warps
// with the launch's own cost model. Per sampled warp:
//   lockstep     U x (c_step + c_visit + c_vote + 2 c_smem): one pop, visit
//                and vote per union node plus its warp-stack pop and push,
//                and c_vote per call-set vote of a guided kernel;
//   non-lockstep Lmax x (c_step + c_visit): one step per visit of the
//                longest lane, plus c_smem per rope-stack push (every
//                visit but each lane's root);
// and for both, c_l2hit per L2-hit transaction and DRAM for every miss,
// found by replaying the warp's segment stream through an L2 slice of the
// launch's own size (l2_slice_bytes). The sampled warps' mean cycles fill
// every chunk, chunks fill the grid's slots, and the time is the launch's:
// max(compute over round_robin_sm_load, memory) (estimate_time_balanced).
// A finite grid keeps a slot's slice across its chunks; the replay starts
// every sampled warp cold.
struct CompositionPrices {
  double lockstep_ms = 0;
  double nolockstep_ms = 0;
  // The decision: the cheaper composition, ties going to lockstep.
  [[nodiscard]] bool lockstep_cheaper() const {
    return lockstep_ms <= nolockstep_ms;
  }
};

[[nodiscard]] inline CompositionPrices price_compositions(
    std::span<const SampledWarp> warps, std::size_t n_warps, std::size_t grid,
    const DeviceConfig& cfg) {
  CompositionPrices price;
  if (warps.empty() || n_warps == 0) return price;
  L2Cache slice(l2_slice_bytes(cfg, grid), cfg.l2_line_bytes, cfg.l2_assoc);
  // One stream through a cold slice: stall cycles of its hits, its misses.
  auto replay = [&](const std::vector<std::uint64_t>& segments,
                    double& stall, double& misses) {
    slice.clear();
    for (const std::uint64_t seg : segments) {
      if (cfg.model_l2 && slice.access(seg))
        stall += cfg.c_l2hit;
      else
        misses += 1;
    }
  };
  double lock_cycles = 0, lock_dram = 0, nolock_cycles = 0, nolock_dram = 0;
  for (const SampledWarp& w : warps) {
    lock_cycles += static_cast<double>(w.union_visits) *
                       (cfg.c_step + cfg.c_visit + cfg.c_vote +
                        2 * cfg.c_smem) +
                   static_cast<double>(w.callset_votes) * cfg.c_vote;
    replay(w.lockstep_segments, lock_cycles, lock_dram);
    nolock_cycles +=
        static_cast<double>(w.longest) * (cfg.c_step + cfg.c_visit) +
        static_cast<double>(w.lane_visits - w.lanes) * cfg.c_smem;
    replay(w.nolockstep_segments, nolock_cycles, nolock_dram);
  }
  const auto sampled = static_cast<double>(warps.size());
  auto launch_ms = [&](double cycles, double dram) {
    std::vector<double> slot_cycles(grid);
    for (std::size_t p = 0; p < grid; ++p)
      slot_cycles[p] =
          static_cast<double>((n_warps - p + grid - 1) / grid) * cycles /
          sampled;
    KernelStats traffic;
    traffic.dram_bytes =
        static_cast<std::uint64_t>(std::llround(
            dram / sampled * static_cast<double>(n_warps))) *
        static_cast<std::uint64_t>(cfg.transaction_bytes);
    return estimate_time_balanced(slot_cycles, traffic, cfg).total_ms;
  };
  price.lockstep_ms = launch_ms(lock_cycles, lock_dram);
  price.nolockstep_ms = launch_ms(nolock_cycles, nolock_dram);
  return price;
}

// Turn the sampler's report into the launch's executed mode: the
// autoropes composition price_compositions predicts is cheaper for a
// launch of `n_points` points. Both predictions and the sampling launch's
// modelled cost (sampling_launch_cycles) ride along in the selection. A
// device the memory front end cannot model is rejected here, before it is
// priced.
[[nodiscard]] inline ResolvedLaunch resolve_auto_select(
    GpuMode mode, const ProfileReport& p, std::size_t n_points,
    const DeviceConfig& cfg) {
  WarpMemory::check_device(cfg);
  const auto ws = static_cast<std::size_t>(cfg.warp_size);
  const std::size_t n_warps = (n_points + ws - 1) / ws;
  const CompositionPrices price =
      price_compositions(p.warps, n_warps, launch_grid(mode, n_warps), cfg);
  mode = dispatched_mode(mode, price.lockstep_cheaper()
                                   ? Variant::kAutoLockstep
                                   : Variant::kAutoNolockstep);
  SelectionInfo sel;
  sel.mean_similarity = p.mean_similarity;
  sel.baseline_similarity = p.baseline_similarity;
  sel.samples = p.samples;
  sel.predicted_lockstep_ms = price.lockstep_ms;
  sel.predicted_nolockstep_ms = price.nolockstep_ms;
  sel.chosen = mode.variant();
  sel.sampling_cycles = sampling_launch_cycles(p, cfg);
  return {mode, sel};
}

// Charge the sampler to a launch's counters and modelled time: its cycles
// land in the kSelect bucket, and its launch runs as a serial prologue
// before the kernel -- total = select + max(compute, memory), so the
// charge shows whether the kernel is compute- or memory-bound. Compute
// time and the memory-bound flag stay the kernel's own.
inline void charge_sampling(const SelectionInfo& sel, const DeviceConfig& cfg,
                            KernelStats& stats, TimeBreakdown& time) {
  stats.note_sampling_cycles(sel.sampling_cycles);
  time.select_ms = sel.sampling_cycles / (cfg.clock_ghz * 1e6);
  time.total_ms = time.select_ms + time.kernel_ms();
}

// A finished launch's merged counters, modelled time and (when a profile
// sink ran) cycle-attribution profile.
struct LaunchTotals {
  KernelStats stats;
  TimeBreakdown time;
  std::optional<obs::ProfileReport> profile;
};

// The epilogue of every launch: merge the per-slot counters, run the
// imbalance-aware cost model, apply the section-4.4 charge when the launch
// was auto-selected (and record the launch-scope kSelect decision event),
// then build the profile -- after the charge, so its bucket split
// reconciles with the full launch.
[[nodiscard]] inline LaunchTotals finish_launch(
    const std::vector<KernelStats>& per_slot, const DeviceConfig& cfg,
    const std::optional<SelectionInfo>& selection, obs::TraceSink* trace,
    obs::ProfileSink* profile) {
  LaunchTotals t;
  t.stats = merge_stats(per_slot);
  t.time = estimate_time_balanced(instr_cycles_of(per_slot), t.stats, cfg);
  if (selection) {
    charge_sampling(*selection, cfg, t.stats, t.time);
    if (trace)
      trace->record_launch(obs::TraceEventKind::kSelect, 0xffffffffu,
                           static_cast<std::uint32_t>(selection->samples), 0,
                           variant_is_lockstep(selection->chosen) ? 1u : 0u);
  }
  if (profile) {
    const obs::ProfileCollector merged = profile->merged();
    t.profile = obs::make_profile_report(t.stats, cfg, &merged);
  }
  return t;
}

// ---------------------------------------------------------------------
// Type-erased launch API.
// ---------------------------------------------------------------------

// Per-launch execution state behind a virtual boundary: typed result
// storage plus the untyped counters / overflow report the launch paths
// need. Built by run_gpu_sim or KernelHandle::prepare with a *resolved*
// mode (no auto_select), which fixes the shape and reserves the launch's
// scratch buffers in its address space.
class LaunchRun {
 public:
  virtual ~LaunchRun() = default;

  LaunchGeometry shape;
  // Non-lockstep: per-point node visits; lockstep: per-warp pop counts
  // (same split as GpuRun).
  std::vector<std::uint32_t> per_point_visits;
  std::vector<std::uint32_t> per_warp_pops;
  OverflowReport overflow;

  // Simulate every chunk assigned to physical warp slot `p` (< shape.grid):
  // logical warps p, p + grid, p + 2*grid, ...
  virtual void run_slot(std::size_t p, KernelStats& stats, L2Cache* l2) = 0;
  // Sharded execution (core/device_group.h): slot `p` of a device whose
  // assigned chunk list is `warps` and whose physical grid is `grid` walks
  // warps[p], warps[p + grid], ... Results/counters land in the same
  // canonical warp-indexed storage as run_slot.
  virtual void run_shard_slot(std::span<const std::uint32_t> warps,
                              std::size_t grid, std::size_t p,
                              KernelStats& stats, L2Cache* l2) = 0;
  [[nodiscard]] virtual const void* result_data() const = 0;
  [[nodiscard]] virtual std::size_t result_stride() const = 0;
};

// Virtual-dispatch wrapper over a NamedTraversalKernel. The handle does
// not own the kernel or its tree/point data by default; pass `keep_alive`
// to make_kernel_handle when the handle should extend their lifetime
// (e.g. the batched harness builds trees per launch and parks them there).
class KernelHandle {
 public:
  virtual ~KernelHandle() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual std::size_t num_points() const = 0;
  [[nodiscard]] virtual int stack_bound() const = 0;
  [[nodiscard]] virtual std::size_t result_stride() const = 0;

  // Whether this kernel can execute variant `v` (always true for the
  // stack-based variants; the stackless family needs a rope-carrying
  // unguided kernel -- see kernel_variant_eligible in static_ropes.h).
  // Batched/sharded dispatch pre-checks this so an ineligible pairing
  // fails one launch gracefully instead of throwing out of the pool.
  [[nodiscard]] virtual bool variant_eligible(Variant v) const = 0;

  // The canonical ineligibility message for (this kernel, v) -- empty when
  // the pair can run. Unlike variant_eligible this also covers the
  // runtime empty-ropes case (core/static_ropes.h), so batched admission
  // reports the same string run_gpu_sim would throw.
  [[nodiscard]] virtual std::string variant_ineligible_reason(
      Variant v) const = 0;

  // The section-4.4 sampler (auto_select resolution) for a launch on
  // `cfg`; `space`, the address space holding the kernel's buffers, adds
  // the sampled warps' segment streams (profile_similarity).
  [[nodiscard]] virtual ProfileReport profile(
      std::size_t samples, std::uint64_t seed, const DeviceConfig& cfg,
      const GpuAddressSpace* space) const = 0;
  // The sampler's traversals and similarity alone, on the default device.
  [[nodiscard]] ProfileReport profile(std::size_t samples,
                                      std::uint64_t seed) const {
    return profile(samples, seed, DeviceConfig{}, nullptr);
  }

  // Build the launch's TypedLaunchRun: size it, reserve its scratch
  // buffers in `space` (the same buffer names and addresses run_gpu_sim
  // uses) and allocate result/counter storage. Throws
  // std::invalid_argument on a mode still carrying auto_select, and on an
  // ineligible variant ("launch: " + the canonical reason string).
  [[nodiscard]] virtual std::unique_ptr<LaunchRun> prepare(
      GpuAddressSpace& space, const DeviceConfig& cfg, const GpuMode& mode,
      obs::TraceSink* trace, obs::ProfileSink* profile,
      std::uint32_t kernel_id) const = 0;
};

// The typed launch. Each slot owns its full simulation state -- memory
// front end, engine, arena slice, KernelStats, L2 slice -- and walks its
// chunks in ascending order, so a launch's results and counters do not
// depend on which other launches share the residency, on the host thread
// count, or (for results) on how its chunks are split across devices.
template <TraversalKernel K>
class TypedLaunchRun final : public LaunchRun {
 public:
  // `mode` must be resolved and eligible for K; run_gpu_sim and
  // KernelHandle::prepare check both, each with its own error prefix.
  // Runs serially, before any slot fans out, so the ensure_buffer calls
  // here are safe. Opens the trace / profile sinks.
  TypedLaunchRun(const K& k, GpuAddressSpace& space, const DeviceConfig& cfg,
                 GpuMode mode, obs::TraceSink* trace,
                 obs::ProfileSink* profile, std::uint32_t kernel_id)
      : k_(&k),
        space_(&space),
        cfg_(&cfg),
        mode_(mode),
        trace_(trace),
        profile_(profile),
        kernel_id_(kernel_id) {
    shape = launch_geometry(k, cfg, mode);
    results.resize(shape.n);
    if (mode.lockstep)
      per_warp_pops.assign(shape.n_warps, 0);
    else
      per_point_visits.assign(shape.n, 0);
    if (mode.stackless) {
      // No stack arena. Register the rope array (launch-time scratch, like
      // the arena -- never part of the kernel's upload bytes) and build
      // the shared-memory node cache from the freed stack bytes.
      if constexpr (StacklessCompatibleKernel<K>) {
        sctx_.rope_buf = space.ensure_buffer(
            "ropes", 4, static_cast<std::uint64_t>(k.ropes().rope.size()));
        if (mode.smem_node_cache) {
          cache_ = SmemNodeCache::build(space, k.node_buffers(),
                                        k.ropes().rope.size(),
                                        stackless_cache_bytes(cfg, shape, mode));
          sctx_.cache = &cache_;
        }
      }
    } else {
      stack_base0_ = space.addr(ensure_stack_arena(space, mode, shape), 0);
    }
    if (trace) trace->begin(shape.n_warps, omp_get_max_threads());
    if (profile) profile->begin(omp_get_max_threads());
  }

  void run_slot(std::size_t p, KernelStats& stats, L2Cache* l2) override {
    run_warp_slot(shape.n_warps, shape.grid, p, stats, l2,
                  [](std::size_t i) { return i; });
  }

  void run_shard_slot(std::span<const std::uint32_t> warps, std::size_t grid,
                      std::size_t p, KernelStats& stats, L2Cache* l2) override {
    run_warp_slot(warps.size(), grid, p, stats, l2,
                  [warps](std::size_t i) -> std::size_t { return warps[i]; });
  }

  [[nodiscard]] const void* result_data() const override {
    return results.data();
  }
  [[nodiscard]] std::size_t result_stride() const override {
    return sizeof(typename K::Result);
  }

  std::vector<typename K::Result> results;

 private:
  // The one slot body: construct the slot's memory front end, engine and
  // arena policies once, then simulate chunk indices i = p, p + grid, ...
  // below `count`; `warp_of(i)` names the logical warp chunk i covers.
  template <class WarpOf>
  void run_warp_slot(std::size_t count, std::size_t grid, std::size_t p,
                     KernelStats& stats, L2Cache* l2, WarpOf warp_of) {
    WarpMemory mem(*space_, *cfg_, l2, stats, sctx_.cache);
    // Fused kernels share node records between constituents; serve the
    // duplicate per-lane loads once (core/kernel_compose.h).
    if constexpr (kernel_shares_node_loads<K>)
      mem.set_shared_load_elision(true);
    obs::WarpTracer* tr =
        trace_ ? &trace_->ring(omp_get_thread_num()) : nullptr;
    obs::ProfileCollector* pc =
        profile_ ? &profile_->collector(omp_get_thread_num()) : nullptr;
    WarpEngine<K> eng(*k_, *cfg_, mem, stats, overflow, shape.stack_bound, tr,
                      pc);
    const WarpArenas arenas = make_warp_arenas(
        shape, *cfg_, mode_, stack_base0_ + shape.per_warp_span * p);
    const std::size_t ws = static_cast<std::size_t>(cfg_->warp_size);
    for (std::size_t i = p; i < count; i += grid) {
      const std::size_t w = warp_of(i);
      if (tr) tr->begin_warp(static_cast<std::uint32_t>(w));
      WarpRange range;
      range.begin = static_cast<std::uint32_t>(w * ws);
      range.end = static_cast<std::uint32_t>(std::min(shape.n, (w + 1) * ws));
      eng.begin_chunk(static_cast<std::uint32_t>(w), range,
                      results.data() + range.begin,
                      mode_.lockstep ? nullptr
                                     : per_point_visits.data() + range.begin,
                      mode_.lockstep ? &per_warp_pops[w] : nullptr,
                      kernel_id_);
      run_chunk(eng, mode_, arenas, sctx_);
      eng.end_chunk();
      if (tr) trace_->commit(static_cast<std::uint32_t>(w), *tr);
    }
  }

  const K* k_;
  const GpuAddressSpace* space_;
  const DeviceConfig* cfg_;
  GpuMode mode_;
  obs::TraceSink* trace_;
  obs::ProfileSink* profile_;
  std::uint32_t kernel_id_;
  std::uint64_t stack_base0_ = 0;
  // Stackless launches only: rope buffer id + modelled node cache.
  StacklessCtx sctx_;
  SmemNodeCache cache_;
};

template <NamedTraversalKernel K>
class TypedKernelHandle final : public KernelHandle {
 public:
  explicit TypedKernelHandle(const K& k,
                             std::shared_ptr<const void> keep_alive = nullptr)
      : k_(&k), keep_alive_(std::move(keep_alive)) {}

  [[nodiscard]] const char* name() const override { return K::kName; }
  [[nodiscard]] std::size_t num_points() const override {
    return k_->num_points();
  }
  [[nodiscard]] int stack_bound() const override { return k_->stack_bound(); }
  [[nodiscard]] std::size_t result_stride() const override {
    return sizeof(typename K::Result);
  }

  [[nodiscard]] bool variant_eligible(Variant v) const override {
    return kernel_variant_eligible<K>(v);
  }

  [[nodiscard]] std::string variant_ineligible_reason(Variant v) const override {
    return kernel_variant_ineligible_reason(*k_, v);
  }

  using KernelHandle::profile;
  [[nodiscard]] ProfileReport profile(
      std::size_t samples, std::uint64_t seed, const DeviceConfig& cfg,
      const GpuAddressSpace* space) const override {
    return profile_similarity(*k_, samples, seed, cfg, space);
  }

  [[nodiscard]] std::unique_ptr<LaunchRun> prepare(
      GpuAddressSpace& space, const DeviceConfig& cfg, const GpuMode& mode,
      obs::TraceSink* trace, obs::ProfileSink* profile,
      std::uint32_t kernel_id) const override {
    if (mode.auto_select)
      throw std::invalid_argument(
          "KernelHandle::prepare: mode still carries auto_select; resolve "
          "the launch decision first (run_launch_pool does)");
    const std::string why =
        kernel_variant_ineligible_reason(*k_, mode.variant());
    if (!why.empty()) throw std::invalid_argument("launch: " + why);
    return std::make_unique<TypedLaunchRun<K>>(*k_, space, cfg, mode, trace,
                                               profile, kernel_id);
  }

 private:
  const K* k_;
  std::shared_ptr<const void> keep_alive_;  // optional owner of *k_'s data
};

template <NamedTraversalKernel K>
[[nodiscard]] std::shared_ptr<KernelHandle> make_kernel_handle(
    const K& k, std::shared_ptr<const void> keep_alive = nullptr) {
  return std::make_shared<TypedKernelHandle<K>>(k, std::move(keep_alive));
}

// One element of a batched launch.
struct LaunchSpec {
  std::shared_ptr<KernelHandle> kernel;
  // The launch's address space. Must hold the same buffers the kernel's
  // solo run registered (tree + points), so arena addresses -- and
  // therefore every modelled memory event -- match the solo run.
  GpuAddressSpace* space = nullptr;
  // May carry auto_select; run_launch_pool resolves it per launch through
  // KernelHandle::profile with the mode's profile_samples/profile_seed.
  GpuMode mode;
  obs::TraceSink* trace = nullptr;      // optional per-launch trace
  obs::ProfileSink* profile = nullptr;  // optional per-launch profiler
};

// Type-erased per-launch measurement of a batched run. Mirrors GpuRun<K>
// with raw result bytes instead of a typed vector; stats / time /
// selection stay isolated per launch (only transfer and schedule
// accounting are batch-level, see core/serving.h).
struct LaunchResult {
  std::string kernel_name;
  std::size_t batch_index = 0;
  Variant variant = Variant::kAutoNolockstep;  // executed composition
  KernelStats stats;
  TimeBreakdown time;
  std::size_t n_points = 0;
  std::size_t n_warps = 0;
  std::vector<std::byte> results;  // n_points * result_stride bytes
  std::size_t result_stride = 0;
  std::vector<std::uint32_t> per_point_visits;
  std::vector<std::uint32_t> per_warp_pops;
  std::optional<SelectionInfo> selection;
  // Set when the spec carried a ProfileSink: the launch's cycle-attribution
  // profile (obs/profile.h), sampling charge included for auto_select.
  std::optional<obs::ProfileReport> profile;
  // Empty on success; "kernel <name> (batch <i>): ..." on failure. A
  // failed launch's numbers are zeroed; sibling launches stay valid.
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }

  // Typed view of the result bytes; null when R does not match the stride.
  template <class R>
  [[nodiscard]] const R* results_as() const {
    if (sizeof(R) != result_stride) return nullptr;
    return reinterpret_cast<const R*>(results.data());
  }

  // The paper's "Avg. # Nodes" column (same split as GpuRun).
  [[nodiscard]] double avg_nodes() const {
    if (!per_warp_pops.empty()) {
      double s = 0;
      for (auto v : per_warp_pops) s += v;
      return s / static_cast<double>(per_warp_pops.size());
    }
    double s = 0;
    for (auto v : per_point_visits) s += v;
    return per_point_visits.empty()
               ? 0
               : s / static_cast<double>(per_point_visits.size());
  }
};

}  // namespace tt
