// StackPolicy layer: where traversal continuations live on the simulated
// device, and what memory traffic / cycles their movement costs.
//
// Each policy owns (a) the entry size of what it stores, (b) the address
// computation for a (lane, level) slot inside the warp's arena, and (c)
// the accounting of push/pop/spill traffic -- charged through the
// policy-facing WarpMemory::lane_stack_traffic and KernelStats::note_*
// API. Policies never emit trace events or touch counters directly; the
// WarpEngine (warp_engine.h) is the single instrumentation point.
//
//   LaneRopeStack  -- one rope stack per lane in global memory, interleaved
//                     so lanes in step coalesce (paper section 5.2), or the
//                     contiguous-per-lane ablation layout.
//   WarpStack      -- one rope stack per warp (lockstep, Figure 8): the
//                     warp-shared record (node + mask + uniform arg) lives
//                     in shared memory (or global, as the section-5.2
//                     ablation), while per-lane LArg planes stay in the
//                     interleaved global stack.
//   CallFrames     -- recursion: per-lane call frames spilled to
//                     thread-interleaved local memory.
//   StacklessRope  -- no stack at all: truncation follows the statically
//                     installed escape-index rope (core/static_ropes.h),
//                     one global rope-array load per escape.
//   IndexWalk      -- no stack and no rope loads either: the Wald-style
//                     arithmetic escape for left-biased DFS binary trees,
//                     a pure index computation at shared-memory latency.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/rope_stack.h"
#include "core/static_ropes.h"
#include "core/traversal_kernel.h"
#include "simt/device_config.h"
#include "simt/kernel_stats.h"

namespace tt {

// Bytes of one interleaved global rope-stack entry (node id + arguments),
// padded to 4-byte granularity like the generated CUDA code would.
template <class K>
constexpr std::uint32_t stack_entry_bytes(bool lockstep) {
  std::uint32_t b = lockstep ? 0 : 4;  // node id (per warp under lockstep)
  if constexpr (kernel_has_uniform_arg<K>)
    if (!lockstep) b += static_cast<std::uint32_t>(sizeof(typename K::UArg));
  if constexpr (kernel_has_lane_arg<K>)
    b += static_cast<std::uint32_t>(sizeof(typename K::LArg));
  return (b + 3u) & ~3u;
}

// The entry size a launch's stack arena is laid out with: the interleaved
// rope-stack entry, 4 bytes at least.
template <class K>
constexpr std::uint32_t arena_entry_bytes(bool lockstep) {
  return std::max<std::uint32_t>(4, stack_entry_bytes<K>(lockstep));
}

// Stack-arena bytes per physical warp: one interleaved stack (or
// local-memory frame arena) region of stack_bound + 4 levels, plus room
// for the warp-level entries of the global-lockstep ablation. Physical
// warp p's region starts p spans into the arena.
inline std::uint64_t warp_arena_span(int stack_bound, std::uint32_t entry_bytes,
                                     const DeviceConfig& cfg) {
  return static_cast<std::uint64_t>(stack_bound + 4) *
         (static_cast<std::uint64_t>(cfg.warp_size) *
              std::max<std::uint32_t>(
                  entry_bytes, static_cast<std::uint32_t>(cfg.frame_bytes)) +
          12);
}

// ---------------------------------------------------------------------
// Per-lane rope stacks in global memory (non-lockstep autoropes).
// ---------------------------------------------------------------------
struct LaneRopeStack {
  std::uint64_t base = 0;
  std::uint32_t entry_bytes = 0;
  std::uint32_t warp_size = 32;
  std::uint32_t max_levels = 0;  // contiguous-ablation per-lane block size
  bool contiguous = false;       // section-5.2 ablation layout

  [[nodiscard]] std::uint64_t addr(int lane, std::size_t level) const {
    return base +
           (contiguous
                ? contiguous_stack_offset(level, static_cast<std::uint32_t>(lane),
                                          max_levels, entry_bytes)
                : interleaved_stack_offset(level,
                                           static_cast<std::uint32_t>(lane),
                                           warp_size, entry_bytes));
  }

  // A pop re-reads the entry the matching push wrote.
  template <class Engine>
  void record_pop(Engine& eng, int lane, std::size_t level) const {
    eng.mem().lane_stack_traffic(lane, addr(lane, level), entry_bytes);
  }
  // A push writes the entry and pays the stack-maintenance instruction.
  template <class Engine>
  void record_push(Engine& eng, int lane, std::size_t level) const {
    eng.mem().lane_stack_traffic(lane, addr(lane, level), entry_bytes);
    eng.stats().note_stack_cycles(eng.cfg().c_smem);
  }
};

// ---------------------------------------------------------------------
// Per-warp masked stack (lockstep autoropes, Figure 8).
// ---------------------------------------------------------------------
struct WarpStack {
  std::uint64_t lane_plane_base = 0;   // interleaved per-lane LArg planes
  std::uint64_t warp_entries_base = 0; // global-ablation warp records
  std::uint32_t lane_entry_bytes = 0;
  std::uint32_t warp_size = 32;
  bool global = false;  // ablation: warp entries in global, not shared, mem

  [[nodiscard]] std::uint64_t lane_addr(int lane, std::size_t level) const {
    return lane_plane_base +
           (level * static_cast<std::size_t>(warp_size) +
            static_cast<std::size_t>(lane)) *
               lane_entry_bytes;
  }

  // Push or pop of the warp-shared record (node id + mask + uniform arg):
  // one 12-byte global access under the ablation, a shared-memory op
  // otherwise.
  template <class Engine>
  void record_warp_op(Engine& eng, std::size_t level) const {
    if (global)
      eng.mem().lane_stack_traffic(0, warp_entries_base + level * 12, 12);
    else
      eng.stats().note_stack_cycles(eng.cfg().c_smem);
  }
  // Per-lane argument plane traffic at `level` (kernels with LArgs only).
  template <class Engine>
  void record_lane_plane(Engine& eng, int lane, std::size_t level) const {
    eng.mem().lane_stack_traffic(lane, lane_addr(lane, level),
                                 lane_entry_bytes);
  }
};

// ---------------------------------------------------------------------
// Spilled call frames in thread-interleaved local memory (recursion).
// ---------------------------------------------------------------------
struct CallFrames {
  std::uint64_t base = 0;
  std::uint32_t frame_bytes = 0;
  std::uint32_t warp_size = 32;

  [[nodiscard]] std::uint64_t addr(int lane, std::size_t depth) const {
    return base +
           (depth * static_cast<std::size_t>(warp_size) +
            static_cast<std::size_t>(lane)) *
               frame_bytes;
  }

  // One frame spill (call) or restore (return) for `lane` at `depth`.
  template <class Engine>
  void record_frame(Engine& eng, int lane, std::size_t depth) const {
    eng.mem().lane_stack_traffic(lane, addr(lane, depth), frame_bytes);
  }
};

// ---------------------------------------------------------------------
// Stackless escape-index ropes (prior work's static ropes as a policy:
// Popov et al. / Hapala et al. via core/static_ropes.h). Descend is
// cur + 1 under the left-biased DFS layout; truncation follows
// rope[cur] == cur + subtree_size(cur). No stack state exists, so the
// profiler's `stack` bucket stays at exactly zero and the shared-memory
// bytes the WarpStack record occupied are free for the node cache.
// ---------------------------------------------------------------------
struct StacklessRope {
  const StaticRopes* ropes = nullptr;
  std::int32_t rope_buf = -1;  // the installed rope array in global memory

  [[nodiscard]] NodeId escape(NodeId n) const {
    return ropes->rope[static_cast<std::size_t>(n)];
  }

  // One global rope-array load per escape taken: per-lane under the
  // per-lane walks, a single lane-0 load per whole-warp escape under
  // lockstep (the warp-shared cursor is one value).
  template <class Engine>
  void record_escape(Engine& eng, int lane, NodeId n) const {
    eng.mem().lane_load(lane, rope_buf, static_cast<std::uint64_t>(n));
  }
};

// ---------------------------------------------------------------------
// Wald-style index-arithmetic escape for left-biased DFS binary trees
// (fanout 2 only, see kernel_index_walk_eligible): the escape target is
// derived from node indices alone, so an escape costs one shared-memory-
// latency arithmetic step and touches no memory at all. The host
// simulation reads the installed rope table as its oracle for the same
// value the arithmetic would produce.
// ---------------------------------------------------------------------
struct IndexWalk {
  const StaticRopes* ropes = nullptr;

  [[nodiscard]] NodeId escape(NodeId n) const {
    return ropes->rope[static_cast<std::size_t>(n)];
  }

  // Index arithmetic only: charged to the step bucket, no traffic.
  template <class Engine>
  void record_escape(Engine& eng, int /*lane*/, NodeId /*n*/) const {
    eng.stats().charge(CycleBucket::kStep, eng.cfg().c_smem);
  }
};

}  // namespace tt
