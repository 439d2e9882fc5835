#include "bench_algos/harness.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>

namespace tt {
namespace {

BenchConfig small_config(Algo a, InputKind in, bool sorted) {
  BenchConfig c;
  c.algo = a;
  c.input = in;
  c.n = 512;
  c.sorted = sorted;
  c.verify = true;  // the harness cross-checks every variant
  c.pc_target_neighbors = 12;
  return c;
}

TEST(Harness, NamesAndGrids) {
  EXPECT_EQ(algo_name(Algo::kBH), "Barnes-Hut");
  EXPECT_EQ(input_name(InputKind::kGeocity), "Geocity");
  EXPECT_EQ(inputs_for(Algo::kBH).size(), 2u);
  EXPECT_EQ(inputs_for(Algo::kPC).size(), 4u);
}

TEST(Harness, AnalysisMatchesPaperClassification) {
  EXPECT_EQ(analysis_for(Algo::kBH).cls, ir::TraversalClass::kUnguided);
  EXPECT_EQ(analysis_for(Algo::kPC).cls, ir::TraversalClass::kUnguided);
  EXPECT_EQ(analysis_for(Algo::kKNN).call_sets.size(), 2u);
  EXPECT_EQ(analysis_for(Algo::kNN).cls, ir::TraversalClass::kGuided);
  EXPECT_EQ(analysis_for(Algo::kVP).cls, ir::TraversalClass::kGuided);
}

TEST(Harness, PcRowIsInternallyConsistent) {
  BenchRow row = run_bench(small_config(Algo::kPC, InputKind::kUniform, true));
  EXPECT_GT(row.cpu_t1_ms, 0.0);
  const VariantResult& al = row.result(Variant::kAutoLockstep);
  const VariantResult& an = row.result(Variant::kAutoNolockstep);
  EXPECT_GT(al.time.total_ms, 0.0);
  EXPECT_GT(an.time.total_ms, 0.0);
  EXPECT_GT(row.result(Variant::kRecNolockstep).time.total_ms, 0.0);
  // Lockstep union traversal >= per-point traversal on average.
  EXPECT_GE(al.avg_nodes, an.avg_nodes);
  // Work expansion is at least 1 by construction.
  EXPECT_GE(row.work_expansion.mean, 1.0);
  // Speedup columns derive from the stored numbers.
  EXPECT_NEAR(row.speedup_vs_1(al), row.cpu_t1_ms / al.time.total_ms, 1e-12);
}

TEST(Harness, BhRowRuns) {
  BenchRow row =
      run_bench(small_config(Algo::kBH, InputKind::kPlummer, true));
  EXPECT_GT(row.result(Variant::kAutoLockstep).stats.lane_visits, 0u);
  EXPECT_GT(row.result(Variant::kRecLockstep).stats.calls, 0u);
}

TEST(Harness, BhMultiTimestepAccumulates) {
  BenchConfig one = small_config(Algo::kBH, InputKind::kPlummer, true);
  BenchConfig three = one;
  three.bh_timesteps = 3;
  BenchRow r1 = run_bench(one);
  BenchRow r3 = run_bench(three);
  // Time and visits accumulate across steps; per-step averages stay in the
  // per-step range.
  EXPECT_GT(r3.result(Variant::kAutoLockstep).time.total_ms,
            2.0 * r1.result(Variant::kAutoLockstep).time.total_ms);
  EXPECT_GT(r3.cpu_visits, 2 * r1.cpu_visits);
  EXPECT_LT(r3.result(Variant::kAutoLockstep).avg_nodes,
            2.0 * r1.result(Variant::kAutoLockstep).avg_nodes);
  EXPECT_GE(r3.work_expansion.mean, 1.0);
}

TEST(Harness, BhMultiTimestepTransferCountsEachLaunch) {
  BenchConfig one = small_config(Algo::kBH, InputKind::kPlummer, true);
  BenchConfig three = one;
  three.bh_timesteps = 3;
  BenchRow r1 = run_bench(one);
  BenchRow r3 = run_bench(three);
  // Each timestep re-uploads the rebuilt octree and is its own kernel
  // launch; the transfer column must say so explicitly instead of folding
  // three launches into one round trip.
  EXPECT_EQ(r1.launches, 1);
  EXPECT_EQ(r3.launches, 3);
  EXPECT_GT(r3.upload_bytes, r1.upload_bytes);
  EXPECT_DOUBLE_EQ(r3.transfer_ms(),
                   r3.transfer.round_trip_ms(r3.upload_bytes,
                                             r3.download_bytes, 3));
  EXPECT_GT(r3.transfer_ms(),
            r3.transfer.round_trip_ms(r3.upload_bytes, r3.download_bytes, 1));
}

TEST(Harness, VariantFilterSkipsDisabledVariants) {
  BenchConfig c = small_config(Algo::kPC, InputKind::kUniform, true);
  c.verify = false;  // verification needs every variant's results
  c.variants = VariantSet::from_names("auto_lockstep,rec_lockstep");
  BenchRow row = run_bench(c);
  EXPECT_TRUE(row.result(Variant::kAutoLockstep).ok());
  EXPECT_TRUE(row.result(Variant::kRecLockstep).ok());
  for (Variant v : {Variant::kAutoNolockstep, Variant::kRecNolockstep,
                    Variant::kAutoSelect}) {
    const VariantResult& r = row.result(v);
    EXPECT_FALSE(r.ok()) << variant_name(v);
    EXPECT_EQ(r.error.rfind("skipped", 0), 0u) << r.error;
    EXPECT_EQ(r.time.total_ms, 0.0);
  }
}

TEST(Harness, GuidedAlgosRunBothOrders) {
  for (Algo a : {Algo::kKNN, Algo::kNN, Algo::kVP}) {
    BenchRow row = run_bench(small_config(a, InputKind::kUniform, false));
    EXPECT_GT(row.result(Variant::kAutoLockstep).stats.votes, 0u)
        << algo_name(a);
  }
}

// One construction path: run_bench's typed kernel and the factory-built
// handle bench/serving and bench/sharding submit come from the same
// builder (register_kernels.h), so a launch of either measures the same --
// same radius pick, same VP-tree seed, same layout.
TEST(Harness, RunBenchAndPreparedKernelBuildTheSameKernel) {
  for (Algo a : {Algo::kPC, Algo::kKNN, Algo::kNN, Algo::kVP}) {
    SCOPED_TRACE(algo_name(a));
    BenchConfig c = small_config(a, InputKind::kGeocity, false);
    c.variants = VariantSet::from_names("auto_nolockstep");
    const BenchRow bench = run_bench(c);
    const VariantResult& row = bench.result(Variant::kAutoNolockstep);
    ASSERT_TRUE(row.ok()) << row.error;
    const std::unique_ptr<PreparedKernel> pk = prepare_kernel(c);
    const LaunchSpec spec{pk->handle, &pk->space,
                          GpuMode::from(Variant::kAutoNolockstep), nullptr};
    const LaunchResult r = run_launch_pool(std::span(&spec, 1), c.device)
                               .launches.front();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.stats.lane_visits, row.stats.lane_visits);
    EXPECT_EQ(r.stats.dram_transactions, row.stats.dram_transactions);
    EXPECT_EQ(r.time.total_ms, row.time.total_ms);
  }
}

TEST(Harness, BodyInputForTreeAlgoThrows) {
  BenchConfig c = small_config(Algo::kPC, InputKind::kPlummer, true);
  EXPECT_THROW(run_bench(c), std::invalid_argument);
}

TEST(Harness, CpuSweepMonotone) {
  BenchRow row = run_bench(small_config(Algo::kPC, InputKind::kUniform, true));
  auto sweep = cpu_sweep(row, /*lockstep=*/true, {1, 2, 4, 8, 16, 32});
  ASSERT_EQ(sweep.size(), 6u);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LT(sweep[i].cpu_ms, sweep[i - 1].cpu_ms);
    EXPECT_GT(sweep[i].ratio_vs_gpu, sweep[i - 1].ratio_vs_gpu);
  }
  EXPECT_NEAR(sweep[0].cpu_ms, row.cpu_t1_ms, 1e-9);
}

TEST(Harness, SortedImprovesLockstepExpansion) {
  BenchRow s = run_bench(small_config(Algo::kPC, InputKind::kCovtype, true));
  BenchRow u = run_bench(small_config(Algo::kPC, InputKind::kCovtype, false));
  EXPECT_LT(s.work_expansion.mean, u.work_expansion.mean);
}

}  // namespace
}  // namespace tt
