// WarpEngine: the variant-independent core of the simulated GPU executor.
//
// The executor stack is layered (see DESIGN.md section 3):
//
//   WarpEngine (this header)   owns the per-warp lifecycle -- lane/state
//     setup, point->warp ranges, per-point / per-warp visit counters,
//     result copy-out, rope-stack overflow reporting, and the *single*
//     place where obs::WarpTracer events and KernelStats are emitted.
//   StackPolicy (stack_policy.h)   owns where traversal continuations
//     live: entry sizes, address computation and push/pop/spill traffic.
//   ConvergencePolicy (convergence_policy.h)   owns the warp schedule:
//     which lanes execute each step and how the warp reconverges.
//
// A GPU execution variant is a StackPolicy x ConvergencePolicy
// composition; run_gpu_sim (gpu_executors.h) holds the composition table.
// Policies never touch the tracer or raw counters directly: every event
// funnels through WarpEngine::emit() and the KernelStats::note_* API, so
// adding a fifth variant cannot fork the instrumentation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/traversal_kernel.h"
#include "core/variant.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "simt/device_config.h"
#include "simt/kernel_stats.h"
#include "simt/warp_memory.h"

namespace tt {

struct WarpRange {
  std::uint32_t begin = 0, end = 0;  // point ids [begin, end)
};

// Kernel self-identification (kernel_display_name) lives in
// core/traversal_kernel.h alongside the other kernel traits.

// Kernel id a chunk runs under when the launch is not part of a batch.
// Batched launches pass their index within the batch instead, which makes
// begin_chunk emit a kChunk trace event carrying the id.
inline constexpr std::uint32_t kSoloKernel = 0xffffffffu;

// Cross-warp rope-stack overflow report. The first warp to overflow wins
// the slot (compare-exchange), so the recorded warp id and entry count are
// deterministic per run even though warps execute in parallel.
class OverflowReport {
 public:
  void note(std::uint32_t warp, std::uint64_t entries) {
    bool expected = false;
    if (claimed_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
      warp_ = warp;
      entries_ = entries;
      flag_.store(true, std::memory_order_release);
    }
  }
  [[nodiscard]] bool overflowed() const {
    return flag_.load(std::memory_order_acquire);
  }
  // Valid only after overflowed() returned true and all warps joined.
  [[nodiscard]] std::uint32_t warp() const { return warp_; }
  [[nodiscard]] std::uint64_t entries() const { return entries_; }

 private:
  std::atomic<bool> claimed_{false};
  std::atomic<bool> flag_{false};
  std::uint32_t warp_ = 0;
  std::uint64_t entries_ = 0;
};

template <TraversalKernel K>
class WarpEngine {
 public:
  using UArg = typename K::UArg;
  using LArg = typename K::LArg;
  using State = typename K::State;
  using Result = typename K::Result;
  using ChildT = Child<UArg, LArg>;
  // Per-lane child arguments produced by the union children phase.
  using LaneLArgs = std::array<std::array<LArg, K::kFanout>, 32>;

  WarpEngine(const K& k, const DeviceConfig& cfg, WarpMemory& mem,
             KernelStats& stats, OverflowReport& overflow, int stack_bound,
             obs::WarpTracer* tr, obs::ProfileCollector* pc = nullptr)
      : k_(&k),
        cfg_(&cfg),
        mem_(&mem),
        stats_(&stats),
        overflow_(&overflow),
        stack_bound_(stack_bound),
        tr_(tr),
        pc_(pc) {}

  // ---------------------------------------------------------------
  // THE single trace-emission site. Every executor event -- from any
  // stack or convergence policy -- goes through here; nothing else in
  // the executor stack calls obs::WarpTracer::record. The profiler's
  // hot-node / truncation aggregation rides the same stream.
  // ---------------------------------------------------------------
  void emit(obs::TraceEventKind kind, std::uint32_t node, std::uint32_t mask,
            std::uint32_t depth, std::uint32_t aux = 0) {
    if (tr_) tr_->record(kind, node, mask, depth, aux);
    if (pc_) pc_->on_event(kind, node, mask, depth, aux);
  }

  // Profile-only per-step hook: every convergence policy calls this once
  // per warp step, right where it charges note_warp_step /
  // note_active_lanes, with the step's stack depth and active-lane count.
  // This is what makes the profiler's per-depth histogram reconcile
  // *exactly* with KernelStats::warp_steps / active_lane_sum for all
  // variants -- including rec_nolockstep, whose call/return-only steps
  // emit no kVisit event.
  void profile_step(std::uint32_t depth, int active) {
    if (pc_) pc_->on_step(depth, active);
  }

  // --- per-chunk lifecycle (one 32-point chunk of the strip-mined grid)
  // `point_visits` is non-null for non-lockstep variants (per-point visit
  // counters, indexed by lane), `warp_pops` for lockstep variants (the
  // chunk's union-traversal pop count). `kernel_id` identifies the owning
  // launch when the chunk belongs to a batched run (run_launch_pool):
  // batched chunks open with a kChunk trace event carrying the id, solo
  // chunks (the default) emit nothing extra.
  void begin_chunk(std::uint32_t warp, WarpRange range, Result* results,
                   std::uint32_t* point_visits, std::uint32_t* warp_pops,
                   std::uint32_t kernel_id = kSoloKernel) {
    warp_ = warp;
    range_ = range;
    lanes_ = static_cast<int>(range.end - range.begin);
    results_ = results;
    point_visits_ = point_visits;
    warp_pops_ = warp_pops;
    pops_this_chunk_ = 0;
    if (kernel_id != kSoloKernel)
      emit(obs::TraceEventKind::kChunk, range.begin, full_mask(), 0, kernel_id);
    state_.clear();
    state_.reserve(static_cast<std::size_t>(lanes_));
    for (int l = 0; l < lanes_; ++l)
      state_.push_back(k_->init(range.begin + static_cast<std::uint32_t>(l),
                                *mem_, l));
    mem_->commit();  // initial coalesced point loads
  }

  void end_chunk() {
    if (warp_pops_) *warp_pops_ = pops_this_chunk_;
    for (int l = 0; l < lanes_; ++l) results_[l] = k_->finish(state_[l]);
  }

  // --- accessors for the policies
  [[nodiscard]] const K& kernel() const { return *k_; }
  [[nodiscard]] const DeviceConfig& cfg() const { return *cfg_; }
  [[nodiscard]] WarpMemory& mem() { return *mem_; }
  [[nodiscard]] KernelStats& stats() { return *stats_; }
  [[nodiscard]] int lanes() const { return lanes_; }
  [[nodiscard]] std::uint32_t warp() const { return warp_; }
  [[nodiscard]] WarpRange range() const { return range_; }
  [[nodiscard]] int stack_bound() const { return stack_bound_; }
  [[nodiscard]] State& state(int lane) { return state_[static_cast<std::size_t>(lane)]; }
  [[nodiscard]] std::uint32_t full_mask() const {
    return lanes_ >= 32 ? 0xffffffffu : ((1u << lanes_) - 1u);
  }

  // --- counters ---------------------------------------------------
  // Per-lane visit under a non-lockstep schedule (also feeds the
  // per-point visit counters Table 2 consumes).
  void count_point_visit(int lane) {
    stats_->note_lane_visit();
    if (point_visits_) ++point_visits_[lane];
  }
  // Warp-level pop of the union traversal (lockstep schedules).
  void count_warp_pop() {
    stats_->note_warp_pop();
    ++pops_this_chunk_;
  }
  // Rope-stack growth check: flags overflow (first warp wins) and tracks
  // the peak depth. Call after every push batch.
  void check_rope_depth(std::size_t entries) {
    if (entries > static_cast<std::size_t>(stack_bound_))
      overflow_->note(warp_, entries);
    stats_->note_stack_depth(entries);
  }

  // ----------------------------------------------------------------
  // Shared lockstep phases (union traversal, paper section 4). Both
  // lockstep compositions -- autoropes over a per-warp stack and
  // recursion over spilled call frames -- reconverge through these.
  // ----------------------------------------------------------------

  // Visit every lane in `mask`, then take the warp-wide AND truncation
  // vote of Figure 8. Returns the surviving (descend) mask.
  std::uint32_t union_visit_and_vote(NodeId node, const UArg& ua,
                                     const std::vector<LArg>& la,
                                     std::uint32_t mask, std::uint32_t depth) {
    stats_->note_visit_cycles(cfg_->c_visit);
    int active = 0;
    std::uint32_t new_mask = 0;
    for (int l = 0; l < lanes_; ++l) {
      if (!(mask & (1u << l))) continue;
      ++active;
      stats_->note_lane_visit();
      if (k_->visit(node, ua, la[static_cast<std::size_t>(l)], state_[static_cast<std::size_t>(l)],
                    *mem_, l))
        new_mask |= 1u << l;
    }
    stats_->note_active_lanes(active);
    profile_step(depth, active);
    mem_->commit();  // broadcast node load coalesces to one transaction
    emit(obs::TraceEventKind::kVisit, node, mask, depth);
    if ((mask & ~new_mask) != 0)
      emit(obs::TraceEventKind::kTruncate, node, mask & ~new_mask, depth);
    // Warp vote on whether anyone still descends (warp_and of Figure 8).
    stats_->note_vote(cfg_->c_vote);
    emit(obs::TraceEventKind::kVote, node, new_mask, depth, new_mask != 0);
    return new_mask;
  }

  // Section 4.3: dynamic single-call-set reduction by majority vote.
  // No-op (call set 0) for unguided kernels.
  int vote_callset(NodeId node, std::uint32_t new_mask, std::uint32_t depth) {
    int cs = 0;
    if constexpr (K::kNumCallSets > 1) {
      static_assert(K::kCallSetsEquivalent,
                    "lockstep requires semantically-equivalent call sets");
      int callset_votes[8] = {};
      for (int l = 0; l < lanes_; ++l)
        if (new_mask & (1u << l))
          ++callset_votes[k_->choose_callset(node, state_[static_cast<std::size_t>(l)])];
      for (int c = 1; c < K::kNumCallSets; ++c)
        if (callset_votes[c] > callset_votes[cs]) cs = c;
      stats_->note_vote(cfg_->c_vote);
      emit(obs::TraceEventKind::kVote, node, new_mask, depth,
           static_cast<std::uint32_t>(cs));
    }
    return cs;
  }

  // Child node ids and UArgs are warp-uniform (every lane passes the same
  // voted call set); per-lane LArgs are each lane's own computation. The
  // leader lane records the (shared) node loads; followers recompute their
  // LArgs against a NoopMem because they hit the leader's cacheline.
  int union_children(NodeId node, const UArg& ua, int cs,
                     std::uint32_t new_mask, ChildT* out,
                     LaneLArgs& lane_largs) {
    int cnt = 0;
    bool have_leader = false;
    for (int l = 0; l < lanes_; ++l) {
      if (!(new_mask & (1u << l))) continue;
      if (!have_leader) {
        have_leader = true;
        cnt = k_->children(node, ua, cs, state_[static_cast<std::size_t>(l)], out, *mem_, l);
        if constexpr (kernel_has_lane_arg<K>)
          for (int i = 0; i < cnt; ++i)
            lane_largs[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)] = out[i].larg;
      } else if constexpr (kernel_has_lane_arg<K>) {
        NoopMem noop;
        ChildT mine[K::kFanout];
        k_->children(node, ua, cs, state_[static_cast<std::size_t>(l)], mine, noop, l);
        for (int i = 0; i < cnt; ++i)
          lane_largs[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)] = mine[i].larg;
      }
    }
    mem_->commit();
    return cnt;
  }

 private:
  const K* k_;
  const DeviceConfig* cfg_;
  WarpMemory* mem_;
  KernelStats* stats_;
  OverflowReport* overflow_;
  int stack_bound_;
  obs::WarpTracer* tr_;
  obs::ProfileCollector* pc_;

  std::uint32_t warp_ = 0;
  WarpRange range_;
  int lanes_ = 0;
  Result* results_ = nullptr;
  std::uint32_t* point_visits_ = nullptr;
  std::uint32_t* warp_pops_ = nullptr;
  std::uint32_t pops_this_chunk_ = 0;
  std::vector<State> state_;
};

}  // namespace tt
