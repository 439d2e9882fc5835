// Multi-device sharding (core/device_group.h): the contract is the same
// one batching pinned -- sharding is results-neutral. run_sharded's merged
// canonical-order results, visit counters and baseline stats must be
// byte-identical to the single-device run for every variant and device
// count, the per-device accounting must partition the launch exactly
// (chunks, points, bytes), and the modelled makespan must be the slowest
// device's pipelined busy time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_algos/harness.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "core/device_group.h"
#include "core/gpu_executors.h"
#include "core/serving.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "obs/chrome_trace.h"
#include "spatial/kdtree.h"

namespace tt {
namespace {

struct ShardFixture {
  PointSet pts;
  KdTree tree;
  GpuAddressSpace space;
  float radius = 0;
  std::unique_ptr<PointCorrelationKernel> pc;

  explicit ShardFixture(std::size_t n = 700) {
    pts = gen_covtype_like(n, 5, 1234);
    tree = build_kdtree(pts, 8);
    radius = pc_pick_radius(pts, 16, 1234);
    pc = std::make_unique<PointCorrelationKernel>(tree, pts, radius, space);
  }

  [[nodiscard]] LaunchSpec spec(Variant v) {
    LaunchSpec s;
    s.kernel = make_kernel_handle(*pc);
    s.space = &space;
    s.mode = GpuMode::from(v);
    s.mode.profile_samples = 8;
    return s;
  }
};

DeviceGroupConfig group_of(std::size_t devices,
                           BatchPolicy policy = BatchPolicy::kWorkStealing) {
  DeviceGroupConfig g;
  g.devices = devices;
  g.policy = policy;
  g.chunk_points = 128;
  return g;
}

constexpr BatchPolicy kPolicies[] = {BatchPolicy::kRoundRobin,
                                     BatchPolicy::kSequential,
                                     BatchPolicy::kWorkStealing};

// ---------------------------------------------------------------------
// Assignment policy names.
// ---------------------------------------------------------------------

TEST(BatchPolicy, NamesRoundTrip) {
  for (BatchPolicy p : kPolicies)
    EXPECT_EQ(batch_policy_from_name(batch_policy_name(p)), p);
  EXPECT_THROW((void)batch_policy_from_name("zigzag"), std::invalid_argument);
}

// The error lists every valid spelling, matching variant_from_name's
// self-diagnosing behavior.
TEST(BatchPolicy, UnknownNameErrorListsValidSpellings) {
  try {
    (void)batch_policy_from_name("zigzag");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("zigzag"), std::string::npos) << msg;
    EXPECT_NE(msg.find("round_robin, sequential, work_stealing"),
              std::string::npos)
        << msg;
  }
}

// ---------------------------------------------------------------------
// Chunk -> device assignment (the sharding planner).
// ---------------------------------------------------------------------

TEST(AssignDevices, RoundRobinKeepsEveryChunkHome) {
  const double costs[] = {5, 1, 1, 5, 1, 1};
  DeviceAssignment a = assign_devices(costs, 2, BatchPolicy::kRoundRobin);
  ASSERT_EQ(a.device.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(a.device[i], i % 2);
  EXPECT_EQ(a.chunks[0], 3u);
  EXPECT_EQ(a.chunks[1], 3u);
  EXPECT_EQ(a.steals[0], 0u);
  EXPECT_EQ(a.steals[1], 0u);
  EXPECT_DOUBLE_EQ(a.load[0], 7.0);
  EXPECT_DOUBLE_EQ(a.load[1], 7.0);
}

TEST(AssignDevices, SequentialSplitsContiguousBlocks) {
  const double costs[] = {1, 1, 1, 1, 1, 1};
  DeviceAssignment a = assign_devices(costs, 3, BatchPolicy::kSequential);
  const std::uint32_t want[] = {0, 0, 1, 1, 2, 2};
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(a.device[i], want[i]) << i;
}

TEST(AssignDevices, WorkStealingIsGreedyEarliestFinish) {
  // Chunk 0 (cost 10) occupies device 0; the greedy then routes chunks 1
  // and 2 to device 1, so chunk 2 -- home device 0 -- counts as a steal.
  const double costs[] = {10, 1, 1, 1};
  DeviceAssignment a = assign_devices(costs, 2, BatchPolicy::kWorkStealing);
  ASSERT_EQ(a.device.size(), 4u);
  EXPECT_EQ(a.device[0], 0u);
  EXPECT_EQ(a.device[1], 1u);
  EXPECT_EQ(a.device[2], 1u);  // stolen from home device 0
  EXPECT_EQ(a.device[3], 1u);
  EXPECT_DOUBLE_EQ(a.load[0], 10.0);
  EXPECT_DOUBLE_EQ(a.load[1], 3.0);
  // Only chunk 2 landed off its home device (2 % 2 == 0), counted on the
  // device that took it.
  EXPECT_EQ(a.steals[0], 0u);
  EXPECT_EQ(a.steals[1], 1u);
}

TEST(AssignDevices, TiesBreakToLowestIndexDeterministically) {
  const double costs[] = {1, 1, 1, 1};
  DeviceAssignment a = assign_devices(costs, 4, BatchPolicy::kWorkStealing);
  // Equal costs: each chunk lands on the lowest-loaded (== lowest index
  // unfilled) device, which is its home -- zero steals, one chunk each.
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(a.chunks[d], 1u);
    EXPECT_EQ(a.steals[d], 0u);
  }
}

TEST(AssignDevices, ZeroDevicesThrows) {
  const double costs[] = {1.0};
  EXPECT_THROW((void)assign_devices(costs, 0, BatchPolicy::kWorkStealing),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Results-neutrality: every variant x device count x policy reproduces
// the solo run byte-for-byte.
// ---------------------------------------------------------------------

TEST(DeviceGroup, ByteIdenticalToSoloAllVariantsAllDeviceCounts) {
  ShardFixture f;
  DeviceConfig cfg;
  for (Variant v : kAllVariants) {
    SCOPED_TRACE(variant_name(v));
    GpuMode mode = GpuMode::from(v);
    mode.profile_samples = 8;
    auto solo = run_gpu_sim(*f.pc, f.space, cfg, mode);
    for (std::size_t devices : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      SCOPED_TRACE("devices " + std::to_string(devices));
      ShardedRun r = run_sharded(f.spec(v), 1 << 20, 1 << 16,
                                 group_of(devices));
      // run_sharded re-verifies the merge against its own baseline; an
      // empty error already certifies byte-identity. Check against an
      // independently produced solo run anyway.
      ASSERT_TRUE(r.merged.ok()) << r.merged.error;
      ASSERT_EQ(r.merged.n_points, solo.results.size());
      EXPECT_EQ(0, std::memcmp(r.merged.results.data(), solo.results.data(),
                               r.merged.n_points * r.merged.result_stride));
      EXPECT_EQ(r.merged.per_point_visits, solo.per_point_visits);
      EXPECT_EQ(r.merged.per_warp_pops, solo.per_warp_pops);
      EXPECT_EQ(r.merged.stats.lane_visits, solo.stats.lane_visits);
      EXPECT_EQ(r.merged.stats.warp_pops, solo.stats.warp_pops);
      EXPECT_EQ(r.merged.time.total_ms, solo.time.total_ms);

      // The device shards partition the launch exactly.
      ASSERT_EQ(r.devices.size(), devices);
      std::size_t chunks = 0, points = 0;
      std::uint64_t up = 0, down = 0, lane_visits = 0, warp_pops = 0;
      double makespan = 0;
      for (const DeviceShard& d : r.devices) {
        chunks += d.chunks;
        points += d.points;
        up += d.upload_bytes;
        down += d.download_bytes;
        lane_visits += d.stats.lane_visits;
        warp_pops += d.stats.warp_pops;
        makespan = std::max(makespan, d.busy_ms);
        EXPECT_GE(d.transfer.overlap_ms, 0.0);
        EXPECT_LE(d.transfer.overlap_ms, d.transfer.copy_in_ms + 1e-12);
      }
      EXPECT_EQ(chunks, r.merged.n_warps);
      EXPECT_EQ(points, r.merged.n_points);
      EXPECT_EQ(up, 1u << 20);
      EXPECT_EQ(down, 1u << 16);
      EXPECT_EQ(lane_visits, solo.stats.lane_visits);
      EXPECT_EQ(warp_pops, solo.stats.warp_pops);
      EXPECT_EQ(r.makespan_ms, makespan);
      EXPECT_GT(r.speedup, 0.0);
    }
  }
}

TEST(DeviceGroup, PolicyOnlyShapesAccountingNotResults) {
  ShardFixture f;
  for (BatchPolicy policy : kPolicies) {
    SCOPED_TRACE(batch_policy_name(policy));
    ShardedRun r = run_sharded(f.spec(Variant::kAutoNolockstep), 4096, 1024,
                               group_of(3, policy));
    EXPECT_TRUE(r.merged.ok()) << r.merged.error;
  }
}

// ---------------------------------------------------------------------
// N = 1: one shard that is exactly the single-device run.
// ---------------------------------------------------------------------

TEST(DeviceGroup, SingleDeviceShardMatchesBaselineExactly) {
  ShardFixture f;
  const std::uint64_t up = 6'000'000, down = 3'000'000;
  DeviceGroupConfig g = group_of(1);
  ShardedRun r = run_sharded(f.spec(Variant::kAutoNolockstep), up, down, g);
  ASSERT_TRUE(r.merged.ok()) << r.merged.error;
  ASSERT_EQ(r.devices.size(), 1u);
  const DeviceShard& d = r.devices[0];
  EXPECT_EQ(d.chunks, r.merged.n_warps);
  EXPECT_EQ(d.points, r.merged.n_points);
  EXPECT_EQ(d.steals, 0u);
  // The lone shard re-executes the identical launch: exact stats/time.
  EXPECT_EQ(d.stats.instr_cycles, r.merged.stats.instr_cycles);
  EXPECT_EQ(d.stats.lane_visits, r.merged.stats.lane_visits);
  EXPECT_EQ(d.time.total_ms, r.merged.time.total_ms);
  // single_device_ms charges the synchronous round trip; the pipelined
  // shard can only hide transfer under compute, never add to it.
  EXPECT_DOUBLE_EQ(r.single_device_ms,
                   r.merged.time.total_ms +
                       g.transfer.round_trip_ms(up, down, 1));
  EXPECT_LE(r.makespan_ms, r.single_device_ms + 1e-12);
  EXPECT_DOUBLE_EQ(d.busy_ms, d.transfer.exposed_ms + d.time.total_ms);
}

// More devices than warps: the excess devices idle at zero cost.
TEST(DeviceGroup, ExcessDevicesStayIdle) {
  ShardFixture f(80);  // 3 warps at warp_size 32
  ShardedRun r = run_sharded(f.spec(Variant::kAutoNolockstep), 1024, 256,
                             group_of(8));
  ASSERT_TRUE(r.merged.ok()) << r.merged.error;
  ASSERT_EQ(r.devices.size(), 8u);
  std::size_t idle = 0;
  for (const DeviceShard& d : r.devices)
    if (d.chunks == 0) {
      ++idle;
      EXPECT_EQ(d.points, 0u);
      EXPECT_EQ(d.upload_bytes, 0u);
      EXPECT_EQ(d.busy_ms, 0.0);
    }
  EXPECT_EQ(idle, 8u - r.merged.n_warps);
}

TEST(DeviceGroup, RejectsBadArguments) {
  ShardFixture f;
  EXPECT_THROW((void)run_sharded(f.spec(Variant::kAutoNolockstep), 0, 0,
                                 group_of(0)),
               std::invalid_argument);
  LaunchSpec empty;
  EXPECT_THROW((void)run_sharded(empty, 0, 0, group_of(2)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Chrome tracks: one "dev<i>/<kernel>" process per working device, with
// the pipelined copy chunks as launch-scope kCopy events.
// ---------------------------------------------------------------------

TEST(DeviceGroup, OpensPerDeviceChromeTracks) {
  ShardFixture f;
  obs::ChromeTraceCollector chrome;
  DeviceGroupConfig g = group_of(2);
  g.chrome = &chrome;
  ShardedRun r = run_sharded(f.spec(Variant::kAutoNolockstep), 1 << 20,
                             1 << 16, g);
  ASSERT_TRUE(r.merged.ok()) << r.merged.error;
  ASSERT_EQ(chrome.n_launches(), 2u);
  EXPECT_EQ(chrome.launch_name(0), "dev0/point_correlation");
  EXPECT_EQ(chrome.launch_name(1), "dev1/point_correlation");
  EXPECT_GT(chrome.total_events(), 0u);
}

// ---------------------------------------------------------------------
// Harness entry point.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// The section-4.4 charge is one computation on every launch path: the
// typed solo run, the launch pool and the sharded group report the same
// decision, time and counters, and the group pays the sampler once.
// ---------------------------------------------------------------------

void expect_same_stats(const KernelStats& a, const KernelStats& b) {
  EXPECT_EQ(a.load_instructions, b.load_instructions);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.l2_hit_transactions, b.l2_hit_transactions);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.instr_cycles, b.instr_cycles);
  EXPECT_EQ(a.warp_steps, b.warp_steps);
  EXPECT_EQ(a.lane_visits, b.lane_visits);
  EXPECT_EQ(a.warp_pops, b.warp_pops);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.votes, b.votes);
  EXPECT_EQ(a.active_lane_sum, b.active_lane_sum);
  EXPECT_EQ(a.peak_stack_entries, b.peak_stack_entries);
  EXPECT_EQ(a.smem_cache_hits, b.smem_cache_hits);
  EXPECT_EQ(a.smem_cache_misses, b.smem_cache_misses);
  EXPECT_EQ(a.shared_loads_elided, b.shared_loads_elided);
  EXPECT_EQ(a.cycle_buckets, b.cycle_buckets);
}

void expect_same_time(const TimeBreakdown& a, const TimeBreakdown& b) {
  EXPECT_EQ(a.compute_ms, b.compute_ms);
  EXPECT_EQ(a.memory_ms, b.memory_ms);
  EXPECT_EQ(a.select_ms, b.select_ms);
  EXPECT_EQ(a.total_ms, b.total_ms);
  EXPECT_EQ(a.memory_bound, b.memory_bound);
  EXPECT_EQ(a.imbalance, b.imbalance);
}

void expect_same_selection(const SelectionInfo& a, const SelectionInfo& b) {
  EXPECT_EQ(a.mean_similarity, b.mean_similarity);
  EXPECT_EQ(a.baseline_similarity, b.baseline_similarity);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.predicted_lockstep_ms, b.predicted_lockstep_ms);
  EXPECT_EQ(a.predicted_nolockstep_ms, b.predicted_nolockstep_ms);
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_EQ(a.sampling_cycles, b.sampling_cycles);
}

TEST(SamplingCharge, SameOnEveryLaunchPath) {
  for (bool sorted : {true, false}) {
    SCOPED_TRACE(sorted ? "sorted" : "shuffled");
    const std::size_t n = 2048;
    PointSet pts = gen_covtype_like(n, 7, 42);
    pts.permute(sorted ? tree_order(pts, 8) : shuffled_order(n, 42));
    KdTree tree = build_kdtree(pts, 8);
    GpuAddressSpace space;
    PointCorrelationKernel pc(tree, pts, pc_pick_radius(pts, 16, 42), space);
    const DeviceConfig dev;
    const GpuMode mode = GpuMode::from(Variant::kAutoSelect);

    auto solo = run_gpu_sim(pc, space, dev, mode);
    ASSERT_TRUE(solo.selection.has_value());
    EXPECT_EQ(solo.selection->chosen,
              solo.selection->predicted_lockstep_ms <=
                      solo.selection->predicted_nolockstep_ms
                  ? Variant::kAutoLockstep
                  : Variant::kAutoNolockstep);
    EXPECT_GT(solo.selection->sampling_cycles, 0.0);

    LaunchSpec spec;
    spec.kernel = make_kernel_handle(pc);
    spec.space = &space;
    spec.mode = mode;
    const LaunchPool pool = run_launch_pool(std::span(&spec, 1), dev);
    const LaunchResult& pooled = pool.launches[0];
    ASSERT_TRUE(pooled.ok()) << pooled.error;
    ASSERT_TRUE(pooled.selection.has_value());
    expect_same_selection(*pooled.selection, *solo.selection);
    expect_same_time(pooled.time, solo.time);
    expect_same_stats(pooled.stats, solo.stats);

    DeviceGroupConfig group = group_of(4);
    group.device = dev;
    const ShardedRun sharded = run_sharded(spec, 1 << 20, 1 << 16, group);
    ASSERT_TRUE(sharded.merged.ok()) << sharded.merged.error;
    ASSERT_TRUE(sharded.merged.selection.has_value());
    expect_same_selection(*sharded.merged.selection, *solo.selection);
    expect_same_time(sharded.merged.time, solo.time);
    expect_same_stats(sharded.merged.stats, solo.stats);

    // The group samples once: exactly one device carries the whole
    // charge in its select bucket and pays the solo run's prologue on its
    // clock, and the others carry none.
    double select_sum = 0;
    std::size_t paying = 0;
    for (const DeviceShard& d : sharded.devices) {
      const double c = d.stats.bucket_cycles(CycleBucket::kSelect);
      select_sum += c;
      if (c != 0) {
        ++paying;
        EXPECT_EQ(d.time.select_ms, solo.time.select_ms);
        EXPECT_EQ(d.time.total_ms,
                  d.time.select_ms +
                      std::max(d.time.compute_ms, d.time.memory_ms));
      } else {
        EXPECT_EQ(d.time.select_ms, 0.0);
      }
    }
    EXPECT_GT(solo.time.select_ms, 0.0);
    EXPECT_EQ(select_sum, solo.selection->sampling_cycles);
    EXPECT_EQ(paying, 1u);
  }
}

// The devices re-run the baseline's decision: run_sharded's per-device
// mode is dispatched_mode(spec.mode, chosen), ablation knobs kept. A lone
// device runs the whole launch, so its counters and kernel time must
// equal a plain launch of the helper's mode; with a finite grid that pins
// the grid_limit a mode rebuilt from the chosen variant alone would lose,
// and on two devices each one's refills follow the same grid.
TEST(DeviceGroup, DevicesRunTheDispatchedMode) {
  ShardFixture f;
  const DeviceConfig dev;
  for (const std::size_t grid_limit : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE("grid_limit " + std::to_string(grid_limit));
    LaunchSpec sampled = f.spec(Variant::kAutoSelect);
    sampled.mode.grid_limit = grid_limit;
    const ShardedRun one = run_sharded(sampled, 1 << 20, 1 << 16, group_of(1));
    ASSERT_TRUE(one.merged.ok()) << one.merged.error;
    ASSERT_TRUE(one.merged.selection.has_value());
    const Variant chosen = one.merged.selection->chosen;

    LaunchSpec concrete = sampled;
    concrete.mode = dispatched_mode(sampled.mode, chosen);
    EXPECT_FALSE(concrete.mode.auto_select);
    EXPECT_EQ(concrete.mode.variant(), chosen);
    EXPECT_EQ(concrete.mode.grid_limit, grid_limit);
    const LaunchPool direct = run_launch_pool(std::span(&concrete, 1), dev);
    const LaunchResult& d = direct.launches[0];
    ASSERT_TRUE(d.ok()) << d.error;
    EXPECT_FALSE(d.selection.has_value());

    ASSERT_EQ(one.devices.size(), 1u);
    const DeviceShard& sh = one.devices[0];
    EXPECT_EQ(sh.stats.lane_visits, d.stats.lane_visits);
    EXPECT_EQ(sh.stats.warp_steps, d.stats.warp_steps);
    EXPECT_EQ(sh.stats.load_instructions, d.stats.load_instructions);
    EXPECT_EQ(sh.stats.l2_hit_transactions, d.stats.l2_hit_transactions);
    EXPECT_EQ(sh.stats.dram_transactions, d.stats.dram_transactions);
    EXPECT_EQ(sh.time.compute_ms, d.time.compute_ms);
    EXPECT_EQ(sh.time.memory_ms, d.time.memory_ms);
    EXPECT_EQ(sh.time.kernel_ms(), d.time.total_ms);

    const ShardedRun two = run_sharded(sampled, 1 << 20, 1 << 16, group_of(2));
    ASSERT_TRUE(two.merged.ok()) << two.merged.error;
    for (const DeviceShard& x : two.devices) {
      if (x.chunks == 0) continue;
      const std::size_t grid =
          grid_limit > 0 ? std::min(grid_limit, x.chunks) : x.chunks;
      EXPECT_EQ(x.rounds, (x.chunks + grid - 1) / grid)
          << "device " << x.device;
    }
  }
  // A concrete mode is already dispatched: the helper returns it as is.
  GpuMode knobs = GpuMode::from(Variant::kRecLockstep);
  knobs.grid_limit = 3;
  EXPECT_EQ(dispatched_mode(knobs, Variant::kAutoNolockstep), knobs);
}

TEST(RunSharding, ShardsTheItemListAndSumsThePool) {
  ShardingConfig sc;
  for (Algo a : {Algo::kPC, Algo::kNN}) {
    BenchConfig c;
    c.algo = a;
    c.input = inputs_for(a).front();
    c.n = 256;
    c.profile_samples = 4;
    sc.items.push_back(c);
  }
  sc.devices = 4;
  sc.chunk_points = 64;
  ShardingRunSummary s = run_sharding(sc);
  ASSERT_EQ(s.kernels.size(), 2u);
  double solo = 0, makespan = 0;
  for (const ShardingKernelReport& k : s.kernels) {
    EXPECT_TRUE(k.ok()) << k.kernel_name << ": " << k.error;
    EXPECT_EQ(k.devices.size(), 4u);
    solo += k.single_device_ms;
    makespan += k.makespan_ms;
  }
  EXPECT_DOUBLE_EQ(s.single_device_ms(), solo);
  EXPECT_DOUBLE_EQ(s.makespan_ms(), makespan);
  EXPECT_GT(s.speedup(), 0.0);
}

TEST(RunSharding, EmptyItemListThrows) {
  ShardingConfig sc;
  EXPECT_THROW((void)run_sharding(sc), std::invalid_argument);
}

}  // namespace
}  // namespace tt
