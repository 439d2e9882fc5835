// Acceptance test for the section-4.4 adaptive variant: for all five
// Table-1 benchmarks, on spatially sorted inputs (Morton and kd-tree leaf
// order) and on a shuffled one, auto_select must dispatch the composition
// its price predicts is cheaper, and that composition must cost at most
// 10% more than the faster of the two autoropes compositions run directly.
// It must reproduce the chosen composition's results byte-for-byte, and
// report total cycles = chosen-variant cycles + sampling cycles, paid as a
// serial prologue (total_ms = select_ms + max(compute_ms, memory_ms)).
// Kernels come from core's KernelFactory and run through the type-erased
// launch pool (one-launch pools are byte-identical to solo runs by the
// batching contract), which is also what pins the factory registry's
// name-keyed construction end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "bench_algos/register_kernels.h"
#include "core/kernel_factory.h"
#include "core/profiler.h"
#include "core/serving.h"
#include "obs/trace.h"

namespace tt {
namespace {

const char* kFactoryNames[] = {"bh", "pc", "knn", "nn", "vp"};

KernelRequest request_for() {
  register_bench_kernels();
  KernelRequest req;
  req.n = 2048;
  req.seed = 42;
  // The canonical Table-1 inputs: plummer for bh (builder default),
  // covtype for the tree benchmarks (builder default).
  return req;
}

// Sorted inputs: Morton order applies to <= 3 dimensions (BH bodies; a
// 3-d uniform input for the tree benchmarks), kd-tree leaf order to the
// 7-dim Table-1 inputs.
std::vector<KernelRequest> sorted_requests(const std::string& name) {
  const KernelRequest base = request_for();
  if (name == std::string("bh")) {
    KernelRequest r = base;
    r.order = PointOrder::kMorton;
    return {r};
  }
  KernelRequest low_dim = base;
  low_dim.input = "uniform";
  low_dim.dim = 3;
  low_dim.order = PointOrder::kMorton;
  KernelRequest tree = base;
  tree.order = PointOrder::kTree;
  return {low_dim, tree};
}

KernelRequest shuffled_request() {
  KernelRequest req = request_for();
  req.order = PointOrder::kShuffled;
  return req;
}

// One-launch pool under variant `v`; the LaunchResult carries the same
// isolated measurements a solo run_gpu_sim would produce.
LaunchResult run_one(const std::shared_ptr<KernelHandle>& handle,
                     GpuAddressSpace& space, GpuMode mode,
                     obs::TraceSink* trace = nullptr,
                     const DeviceConfig& dev = DeviceConfig{}) {
  LaunchSpec spec;
  spec.kernel = handle;
  spec.space = &space;
  spec.mode = mode;
  spec.trace = trace;
  LaunchPool run = run_launch_pool(std::span<const LaunchSpec>(&spec, 1), dev);
  return std::move(run.launches.front());
}

// auto_select against both autoropes compositions run directly: it
// dispatches the cheaper prediction, the dispatched composition costs at
// most 10% more than the faster one, and the launch is that composition's
// run plus the sampling prologue.
void expect_selects_cheaper(const std::shared_ptr<KernelHandle>& handle,
                            GpuAddressSpace& space) {
  const GpuMode mode = GpuMode::from(Variant::kAutoSelect);
  obs::TraceSink trace;
  LaunchResult g = run_one(handle, space, mode, &trace);
  ASSERT_TRUE(g.ok()) << g.error;
  ASSERT_TRUE(g.selection.has_value());
  const SelectionInfo& sel = *g.selection;
  const bool lockstep =
      sel.predicted_lockstep_ms <= sel.predicted_nolockstep_ms;
  EXPECT_EQ(sel.chosen,
            lockstep ? Variant::kAutoLockstep : Variant::kAutoNolockstep);
  EXPECT_EQ(sel.samples, mode.profile_samples);
  EXPECT_GT(sel.sampling_cycles, 0.0);
  EXPECT_EQ(g.variant, sel.chosen);

  const LaunchResult lock =
      run_one(handle, space, GpuMode::from(Variant::kAutoLockstep));
  const LaunchResult nolock =
      run_one(handle, space, GpuMode::from(Variant::kAutoNolockstep));
  ASSERT_TRUE(lock.ok()) << lock.error;
  ASSERT_TRUE(nolock.ok()) << nolock.error;
  const LaunchResult& direct = lockstep ? lock : nolock;
  EXPECT_LE(direct.time.total_ms,
            1.10 * std::min(lock.time.total_ms, nolock.time.total_ms))
      << "predicted L " << sel.predicted_lockstep_ms << " / N "
      << sel.predicted_nolockstep_ms << " ms; measured L "
      << lock.time.total_ms << " / N " << nolock.time.total_ms << " ms";

  // Byte-identical to the dispatched composition, with exactly the
  // sampling cost charged on top of its cycles.
  ASSERT_EQ(g.results.size(), direct.results.size());
  EXPECT_EQ(0, std::memcmp(g.results.data(), direct.results.data(),
                           g.results.size()));
  EXPECT_EQ(g.per_point_visits, direct.per_point_visits);
  EXPECT_EQ(g.per_warp_pops, direct.per_warp_pops);
  EXPECT_DOUBLE_EQ(g.stats.instr_cycles,
                   direct.stats.instr_cycles + sel.sampling_cycles);
  // The sampling launch runs before the kernel: the kernel's own compute
  // and memory time stay the dispatched composition's, and the prologue
  // adds to the total whichever of the two bounds it.
  const DeviceConfig dev;
  EXPECT_EQ(g.time.compute_ms, direct.time.compute_ms);
  EXPECT_EQ(g.time.memory_ms, direct.time.memory_ms);
  EXPECT_EQ(g.time.memory_bound, direct.time.memory_bound);
  EXPECT_EQ(direct.time.select_ms, 0.0);
  EXPECT_EQ(g.time.select_ms, sel.sampling_cycles / (dev.clock_ghz * 1e6));
  EXPECT_GT(g.time.select_ms, 0.0);
  EXPECT_EQ(g.time.total_ms,
            g.time.select_ms + std::max(g.time.compute_ms, g.time.memory_ms));

  // The launch decision lands in the trace as a single kSelect event.
  ASSERT_EQ(trace.launch_events().size(), 1u);
  const obs::TraceEvent& e = trace.launch_events().front();
  EXPECT_EQ(e.kind, obs::TraceEventKind::kSelect);
  EXPECT_EQ(e.aux, lockstep ? 1u : 0u);
  EXPECT_EQ(e.mask, sel.samples);
  EXPECT_EQ(trace.merged().size(), trace.total_events());
  EXPECT_EQ(trace.merged().back().kind, obs::TraceEventKind::kSelect);
}

class AutoSelectAcceptance
    : public ::testing::TestWithParam<const char*> {};

// The two tests keep the names of the sortedness rule's tests (lockstep on
// sorted inputs, non-lockstep on shuffled ones), one per input family, but
// neither hard-codes a composition: both check the price against direct
// runs. At this scale the price picks lockstep on shuffled bh, pc and kNN
// and non-lockstep on the 3-d Morton NN and VP inputs, and the direct
// runs agree with each of those picks.
TEST_P(AutoSelectAcceptance, SortedOrdersPickLockstep) {
  for (const KernelRequest& req : sorted_requests(GetParam())) {
    SCOPED_TRACE(point_order_name(req.order));
    GpuAddressSpace space;
    auto handle = KernelFactory::instance().make(GetParam(), req, space);
    expect_selects_cheaper(handle, space);
  }
}

TEST_P(AutoSelectAcceptance, ShuffledOrderPicksNonLockstep) {
  GpuAddressSpace space;
  auto handle = KernelFactory::instance().make(
      GetParam(), shuffled_request(), space);
  expect_selects_cheaper(handle, space);
}

// The case a charge folded into compute time hid: on a memory-bound
// launch max(compute + sampling, memory) is just memory. As a serial
// prologue the sampler costs a memory-bound launch exactly select_ms.
TEST(AutoSelect, MemoryBoundLaunchPaysThePrologue) {
  KernelRequest req = request_for();
  req.order = PointOrder::kShuffled;
  GpuAddressSpace space;
  auto handle = KernelFactory::instance().make("pc", req, space);
  DeviceConfig slow_dram;
  slow_dram.mem_bandwidth_gbps = 0.5;
  LaunchResult g = run_one(handle, space, GpuMode::from(Variant::kAutoSelect),
                           nullptr, slow_dram);
  ASSERT_TRUE(g.ok()) << g.error;
  ASSERT_TRUE(g.selection.has_value());
  LaunchResult direct = run_one(handle, space, GpuMode::from(g.variant),
                                nullptr, slow_dram);
  ASSERT_TRUE(direct.ok()) << direct.error;
  ASSERT_TRUE(direct.time.memory_bound);
  ASSERT_TRUE(g.time.memory_bound);
  // Memory-bound with room to spare: the old charge would have vanished.
  ASSERT_GT(g.time.memory_ms,
            g.time.compute_ms + g.selection->sampling_cycles /
                                    (slow_dram.clock_ghz * 1e6));
  EXPECT_GT(g.time.select_ms, 0.0);
  EXPECT_EQ(g.time.total_ms, g.time.select_ms + direct.time.total_ms);
  EXPECT_EQ(g.time.total_ms, g.time.select_ms + g.time.memory_ms);
}

// The sampling launch (sampling_launch_cycles) on hand-built visit counts:
// non-lockstep warps of warp_size lanes, each running its longest lane's
// visits at c_visit + c_step per iteration, laid round-robin on SMs.
TEST(SamplingCharge, LaunchModel) {
  DeviceConfig dev;
  const double iter = dev.c_visit + dev.c_step;
  auto report = [](std::vector<std::uint32_t> lanes) {
    ProfileReport p;
    p.samples = lanes.size() / 2;
    for (std::uint32_t v : lanes) p.sampled_visits += v;
    p.traversal_visits = std::move(lanes);
    return p;
  };
  auto serial = [&](const ProfileReport& p) {
    return static_cast<double>(p.sampled_visits) * iter;
  };

  // Nothing sampled, nothing charged.
  EXPECT_EQ(sampling_launch_cycles(report({}), dev), 0.0);

  // One sample: lanes 0 and 1 of one warp; the warp runs the longer one.
  const ProfileReport one = report({7, 19});
  EXPECT_EQ(sampling_launch_cycles(one, dev), 19 * iter);

  // One full warp costs its longest lane.
  std::vector<std::uint32_t> warp(32);
  for (std::uint32_t i = 0; i < 32; ++i) warp[i] = 10 + (i * 7) % 23;
  warp[13] = 40;
  EXPECT_EQ(sampling_launch_cycles(report(warp), dev), 40 * iter);

  // 64 lanes (the default 32 samples) form two warps on two SMs: the
  // charge is the longer warp, not their sum.
  std::vector<std::uint32_t> two = warp;
  for (std::uint32_t i = 0; i < 32; ++i) two.push_back(5 + i % 3);
  two[63] = 55;
  const ProfileReport p64 = report(two);
  EXPECT_EQ(sampling_launch_cycles(p64, dev), 55 * iter);

  // More warps than SMs: warps w and w + num_sms share an SM, so their
  // cycles add, and the busiest SM sets the charge.
  DeviceConfig narrow = dev;
  narrow.num_sms = 2;
  narrow.warp_size = 2;
  // Warps (max lane): 0:(4) 1:(9) 2:(6) 3:(1) 4:(8) -> SM0 4+6+8, SM1 9+1.
  const ProfileReport five = report({4, 2, 9, 3, 6, 6, 1, 1, 8, 0});
  EXPECT_EQ(sampling_launch_cycles(five, narrow), 18 * iter);

  // The launch never costs more than one lane running every sampled
  // traversal back to back.
  for (const ProfileReport* p : {&one, &p64, &five}) {
    EXPECT_LE(sampling_launch_cycles(*p, dev), serial(*p));
    EXPECT_LE(sampling_launch_cycles(*p, narrow), serial(*p));
  }
}

// price_compositions on hand-built sampled warps (32 lanes each). Without
// segment streams there is no memory term, so a price is the launch's
// compute: 64 chunks on 14 SMs put 5 warps on the busiest SM.
SampledWarp hand_warp(std::uint64_t union_visits, std::uint32_t longest,
                      std::uint64_t lane_visits) {
  SampledWarp w;
  w.lanes = 32;
  w.union_visits = union_visits;
  w.longest = longest;
  w.lane_visits = lane_visits;
  return w;
}

double busiest_sm_ms(double warp_cycles, const DeviceConfig& dev) {
  return 5 * warp_cycles / (dev.clock_ghz * 1e6);
}

TEST(CompositionPrice, LockstepCheaperWhenLanesWalkAlike) {
  const DeviceConfig dev;
  // 32 lanes of 30 visits over 40 distinct nodes: 40 union pops at
  // c_step + c_visit + c_vote + 2 c_smem = 40 cycles, against 38 steps at
  // c_step + c_visit = 32 plus 960 - 32 pushes at c_smem = 2.
  const SampledWarp w = hand_warp(40, 38, 32 * 30);
  const CompositionPrices p = price_compositions(std::span(&w, 1), 64, 64, dev);
  EXPECT_DOUBLE_EQ(p.lockstep_ms, busiest_sm_ms(40 * 40, dev));
  EXPECT_DOUBLE_EQ(p.nolockstep_ms, busiest_sm_ms(38 * 32 + 928 * 2, dev));
  EXPECT_TRUE(p.lockstep_cheaper());
}

TEST(CompositionPrice, NonLockstepCheaperWhenLanesDiverge) {
  const DeviceConfig dev;
  // Lanes of 25 visits that share little: the union traversal pops 600
  // nodes while the longest lane takes 30 steps.
  const SampledWarp w = hand_warp(600, 30, 32 * 25);
  const CompositionPrices p = price_compositions(std::span(&w, 1), 64, 64, dev);
  EXPECT_DOUBLE_EQ(p.lockstep_ms, busiest_sm_ms(600 * 40, dev));
  EXPECT_DOUBLE_EQ(p.nolockstep_ms, busiest_sm_ms(30 * 32 + 768 * 2, dev));
  EXPECT_FALSE(p.lockstep_cheaper());
}

// The same warp in a launch whose L2 slices hold the non-lockstep walk's
// working set, and in one whose slices do not: its scattered segments
// then miss on every access and DRAM makes lockstep the cheaper
// composition, although non-lockstep still costs fewer compute cycles.
TEST(CompositionPrice, SmallSliceDramFlipsTheChoice) {
  const DeviceConfig dev;
  SampledWarp w = hand_warp(150, 40, 32 * 40);
  // Lockstep: 8 node segments, 10 touches each. Non-lockstep: 24
  // segments cycled 40 times.
  for (int round = 0; round < 10; ++round)
    for (std::uint64_t s = 0; s < 8; ++s)
      w.lockstep_segments.push_back(s * 128);
  for (int round = 0; round < 40; ++round)
    for (std::uint64_t s = 0; s < 24; ++s)
      w.nolockstep_segments.push_back(s * 128);
  auto cycles_ms = [&](double cycles, std::size_t warps_per_sm) {
    return static_cast<double>(warps_per_sm) * cycles / (dev.clock_ghz * 1e6);
  };

  // 14 chunks: a 54 KB slice each, so both walks miss once per segment.
  const CompositionPrices roomy =
      price_compositions(std::span(&w, 1), 14, 14, dev);
  const double lock_cycles = 150 * 40 + 72 * dev.c_l2hit;
  const double nolock_cycles = 40 * 32 + 1248 * 2 + 936 * dev.c_l2hit;
  EXPECT_DOUBLE_EQ(roomy.lockstep_ms, cycles_ms(lock_cycles, 1));
  EXPECT_DOUBLE_EQ(roomy.nolockstep_ms, cycles_ms(nolock_cycles, 1));
  EXPECT_FALSE(roomy.lockstep_cheaper());

  // 672 chunks (every resident warp): a 1170-byte slice rounds to one set
  // of 16 lines, and 24 segments cycled through 16 LRU lines always miss.
  const CompositionPrices tight =
      price_compositions(std::span(&w, 1), 672, 672, dev);
  const double dram_ms = 672.0 * 960 * 128 / (dev.mem_bandwidth_gbps * 1e6);
  EXPECT_DOUBLE_EQ(tight.lockstep_ms, cycles_ms(lock_cycles, 48));
  EXPECT_DOUBLE_EQ(tight.nolockstep_ms, dram_ms);
  EXPECT_GT(cycles_ms(lock_cycles, 48), cycles_ms(40 * 32 + 1248 * 2, 48));
  EXPECT_TRUE(tight.lockstep_cheaper());

  // Free DRAM takes the flip away.
  DeviceConfig free_dram = dev;
  free_dram.mem_bandwidth_gbps = 1e12;
  EXPECT_FALSE(price_compositions(std::span(&w, 1), 672, 672, free_dram)
                   .lockstep_cheaper());
}

TEST(CompositionPrice, NothingSampledTiesToLockstep) {
  const CompositionPrices p = price_compositions(
      std::span<const SampledWarp>(), 64, 64, DeviceConfig{});
  EXPECT_EQ(p.lockstep_ms, 0.0);
  EXPECT_EQ(p.nolockstep_ms, 0.0);
  EXPECT_TRUE(p.lockstep_cheaper());
}

TEST(AutoSelect, ZeroSamplesRejected) {
  KernelRequest req = request_for();
  req.order = PointOrder::kTree;
  GpuAddressSpace space;
  auto handle = KernelFactory::instance().make("pc", req, space);
  GpuMode mode = GpuMode::from(Variant::kAutoSelect);
  mode.profile_samples = 0;
  LaunchSpec spec;
  spec.kernel = handle;
  spec.space = &space;
  spec.mode = mode;
  EXPECT_THROW((void)run_launch_pool(std::span<const LaunchSpec>(&spec, 1),
                                     DeviceConfig{}),
               std::invalid_argument);
}

TEST(AutoSelect, DeterministicAcrossRuns) {
  const KernelRequest req = shuffled_request();
  GpuAddressSpace space1, space2;
  auto h1 = KernelFactory::instance().make("nn", req, space1);
  auto h2 = KernelFactory::instance().make("nn", req, space2);
  const GpuMode mode = GpuMode::from(Variant::kAutoSelect);
  LaunchResult first = run_one(h1, space1, mode);
  LaunchResult again = run_one(h2, space2, mode);
  ASSERT_TRUE(first.selection.has_value());
  ASSERT_TRUE(again.selection.has_value());
  EXPECT_EQ(again.selection->chosen, first.selection->chosen);
  EXPECT_DOUBLE_EQ(again.selection->mean_similarity,
                   first.selection->mean_similarity);
  EXPECT_DOUBLE_EQ(again.selection->sampling_cycles,
                   first.selection->sampling_cycles);
}

// The registry's unknown-name error lists the valid spellings, matching
// the variant_from_name convention.
TEST(KernelFactoryRegistry, UnknownNameListsValidSpellings) {
  register_bench_kernels();
  GpuAddressSpace space;
  try {
    (void)KernelFactory::instance().make("no_such_kernel", KernelRequest{},
                                         space);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kernel_factory: unknown kernel 'no_such_kernel'"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("valid:"), std::string::npos) << what;
    for (const char* name :
         {"bh", "pc", "knn", "nn", "vp", "rope_knn", "rope_nn",
          "fused_knn_nn", "fused_bh_step"})
      EXPECT_NE(what.find(name), std::string::npos)
          << what << " missing " << name;
  }
}

TEST(KernelFactoryRegistry, NamesAreSortedAndComplete) {
  register_bench_kernels();
  const std::vector<std::string> names = KernelFactory::instance().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* name :
       {"bh", "pc", "knn", "nn", "vp", "rope_knn", "rope_nn", "fused_knn_nn",
        "fused_bh_step"})
    EXPECT_TRUE(KernelFactory::instance().contains(name)) << name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, AutoSelectAcceptance,
                         ::testing::ValuesIn(kFactoryNames),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace tt
