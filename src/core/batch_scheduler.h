// Batched multi-kernel launches: interleave chunks from several traversal
// kernels into one simulated device residency (ROADMAP "multi-kernel
// batched runs"; the direction Sakka et al.'s traversal fusion pushes at
// the compiler level).
//
// The scheduler strip-mines each launch exactly the way its solo run
// would (same LaunchGeometry: warp ranges, Figure 9b grid, stack arena) and
// interleaves the chunk streams under a selectable policy:
//
//   kRoundRobin   wave-interleaved: each wave issues one residency-set of
//                 chunks from every launch before any launch's next wave.
//   kSequential   all chunks of launch 0, then launch 1, ... -- the
//                 as-today baseline the equivalence tests compare against.
//   kWorkStealing greedy earliest-finish. As a chunk *order* (single
//                 residency, uniform chunk costs) it degenerates to the
//                 round-robin interleave; its real job is the cost-aware
//                 chunk -> device assignment below (assign_devices), where
//                 each chunk goes to the device that would finish it first
//                 and a chunk landing off its home device counts as a
//                 steal.
//
// Batching is results-neutral by construction: every (launch, slot) pair
// owns its full simulation state -- stack arena slice, L2 slice sized by
// the launch's own grid, KernelStats, visit counters -- and slots walk
// their chunks in the same ascending order as solo, so each launch's
// outputs and per-launch KernelStats are byte-identical to its solo run
// under every policy. The policy shapes only the schedule accounting
// (rounds / switches) and the batch-level transfer amortization: one
// launch overhead for the whole batch instead of one per kernel.
//
// This file is pure planning. Execution lives in the launch engine
// (core/launch.h) behind the admission--dispatch split (core/serving.h,
// DESIGN.md section 3.3): run_launch_pool simulates a batch's slots, and
// its callers -- ServingSession per drained wave, the harness's closed
// batch -- feed the launch shapes back through BatchScheduler for the
// accounting below.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/launch.h"
#include "simt/device_config.h"

namespace tt {

enum class BatchPolicy : std::uint8_t {
  kRoundRobin = 0,
  kSequential = 1,
  kWorkStealing = 2,
};

[[nodiscard]] const char* batch_policy_name(BatchPolicy p);
// "round_robin" / "sequential" / "work_stealing"; throws
// std::invalid_argument otherwise (the error lists the valid spellings,
// like variant_from_name).
[[nodiscard]] BatchPolicy batch_policy_from_name(const std::string& name);

// The summary accounting of the policy-ordered chunk sequence.
struct BatchSchedule {
  std::size_t residency = 0;     // sum of the launches' physical-warp grids
  std::size_t total_chunks = 0;  // sum of the launches' logical warps
  // Residency refills: max per-launch wave count under round-robin (waves
  // overlap across launches), their sum under sequential.
  std::size_t rounds = 0;
  // Adjacent chunks of the sequence that come from different launches.
  std::size_t switches = 0;
};

// Accounts the interleaved schedule of per-launch shapes. Pure planning:
// execution state lives in LaunchRun; ServingSession (core/serving.h)
// consumes the schedule for per-wave accounting while run_launch_pool
// drives the (launch, slot) pool directly. The chunk sequence is walked
// wave by wave and never materialized, so a scheduler reused through
// clear() accounts a wave without allocating.
class BatchScheduler {
 public:
  explicit BatchScheduler(BatchPolicy policy) : policy_(policy) {}

  void add_launch(const LaunchGeometry& shape) {
    launches_.push_back(Entry{shape.n_warps, shape.grid});
  }
  // Forget the launches (keeping their storage) for the next batch.
  void clear() { launches_.clear(); }

  [[nodiscard]] BatchPolicy policy() const { return policy_; }
  [[nodiscard]] std::size_t n_launches() const { return launches_.size(); }
  [[nodiscard]] BatchSchedule schedule() const;

 private:
  struct Entry {
    std::size_t n_warps = 0;
    std::size_t grid = 0;
    // Residency-sets the launch's chunks fill (its own strip-mined rounds).
    [[nodiscard]] std::size_t waves() const {
      return grid == 0 ? 0 : (n_warps + grid - 1) / grid;
    }
  };
  BatchPolicy policy_;
  std::vector<Entry> launches_;
};

// ---------------------------------------------------------------------
// Chunk -> device assignment (core/device_group.h's planning step).
// ---------------------------------------------------------------------

// The assignment of a launch's chunks (logical warps) across N simulated
// devices, plus per-device accounting. `device[i]` is chunk i's device;
// chunk i's *home* device is i % n_devices, and a chunk assigned elsewhere
// counts as a steal on the device that took it.
struct DeviceAssignment {
  std::vector<std::uint32_t> device;  // per chunk, size == chunk_costs.size()
  std::vector<double> load;           // accumulated modelled cost per device
  std::vector<std::size_t> chunks;    // chunks per device
  std::vector<std::size_t> steals;    // chunks taken off their home device
};

// Assign chunks with modelled costs to `n_devices` devices under `policy`:
//   kRoundRobin    chunk i -> device i % n (every chunk stays home)
//   kSequential    contiguous blocks, balanced by chunk count
//   kWorkStealing  greedy earliest-finish: each chunk, in issue order, goes
//                  to the device with the least accumulated cost (ties to
//                  the lowest index) -- the classic online makespan greedy
// Deterministic for a given (costs, n_devices, policy). Throws
// std::invalid_argument on n_devices == 0.
[[nodiscard]] DeviceAssignment assign_devices(std::span<const double> chunk_costs,
                                              std::size_t n_devices,
                                              BatchPolicy policy);

}  // namespace tt
