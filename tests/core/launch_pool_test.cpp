// Batched multi-kernel launches (run_launch_pool over the launch engine,
// core/serving.h): the contract is results-neutrality -- every launch's
// outputs and per-launch KernelStats are byte-identical to its solo
// run_gpu_sim run, whatever chunk order wave_schedule accounts -- plus
// per-launch failure isolation and launch-geometry validation. The
// RunGpuBatch suite covers the closed batch: every launch known up front,
// one run_launch_pool call.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "core/gpu_executors.h"
#include "core/serving.h"
#include "core/traversal_kernel.h"
#include "data/generators.h"
#include "obs/trace.h"
#include "spatial/kdtree.h"
#include "spatial/linear_tree.h"

namespace tt {
namespace {

// ---------------------------------------------------------------------
// Solo-vs-batched byte identity.
// ---------------------------------------------------------------------

template <class K>
void expect_matches_solo(const LaunchResult& b, const GpuRun<K>& solo) {
  ASSERT_TRUE(b.ok()) << b.error;
  ASSERT_EQ(b.result_stride, sizeof(typename K::Result));
  ASSERT_EQ(b.n_points, solo.results.size());
  EXPECT_EQ(0, std::memcmp(b.results.data(), solo.results.data(),
                           b.n_points * b.result_stride));
  EXPECT_EQ(b.per_point_visits, solo.per_point_visits);
  EXPECT_EQ(b.per_warp_pops, solo.per_warp_pops);
  EXPECT_EQ(b.stats.load_instructions, solo.stats.load_instructions);
  EXPECT_EQ(b.stats.dram_transactions, solo.stats.dram_transactions);
  EXPECT_EQ(b.stats.l2_hit_transactions, solo.stats.l2_hit_transactions);
  EXPECT_EQ(b.stats.dram_bytes, solo.stats.dram_bytes);
  EXPECT_EQ(b.stats.instr_cycles, solo.stats.instr_cycles);
  EXPECT_EQ(b.stats.warp_steps, solo.stats.warp_steps);
  EXPECT_EQ(b.stats.lane_visits, solo.stats.lane_visits);
  EXPECT_EQ(b.stats.warp_pops, solo.stats.warp_pops);
  EXPECT_EQ(b.stats.calls, solo.stats.calls);
  EXPECT_EQ(b.stats.votes, solo.stats.votes);
  EXPECT_EQ(b.stats.active_lane_sum, solo.stats.active_lane_sum);
  EXPECT_EQ(b.stats.peak_stack_entries, solo.stats.peak_stack_entries);
  // Identical inputs through identical arithmetic: exact double equality.
  EXPECT_EQ(b.time.compute_ms, solo.time.compute_ms);
  EXPECT_EQ(b.time.memory_ms, solo.time.memory_ms);
  EXPECT_EQ(b.time.total_ms, solo.time.total_ms);
  EXPECT_EQ(b.time.imbalance, solo.time.imbalance);
  EXPECT_EQ(b.selection.has_value(), solo.selection.has_value());
  if (b.selection && solo.selection) {
    EXPECT_EQ(b.selection->chosen, solo.selection->chosen);
    EXPECT_EQ(b.selection->samples, solo.selection->samples);
    EXPECT_EQ(b.selection->mean_similarity, solo.selection->mean_similarity);
    EXPECT_EQ(b.selection->sampling_cycles, solo.selection->sampling_cycles);
  }
}

struct BatchFixtures {
  PointSet pc_pts;
  KdTree pc_tree;
  GpuAddressSpace pc_space;
  float pc_radius = 0;
  std::unique_ptr<PointCorrelationKernel> pc;

  PointSet nn_pts;
  KdTreeNN nn_tree;
  GpuAddressSpace nn_space;
  std::unique_ptr<NnKernel> nn;

  BatchFixtures() {
    pc_pts = gen_covtype_like(500, 7, 77);
    pc_tree = build_kdtree(pc_pts, 8);
    pc_radius = pc_pick_radius(pc_pts, 16, 77);
    pc = std::make_unique<PointCorrelationKernel>(pc_tree, pc_pts, pc_radius,
                                                  pc_space);
    nn_pts = gen_uniform(450, 5, 78);
    nn_tree = build_kdtree_nn(nn_pts);
    nn = std::make_unique<NnKernel>(nn_tree, nn_pts, nn_space);
  }
};

// The chunk order never reaches execution: run_launch_pool takes none, and
// the order only shapes wave_schedule's accounting over the pool's shapes.
// So one pool run per variant covers every order.
TEST(RunGpuBatch, ByteIdenticalToSoloAllVariantsAllPolicies) {
  BatchFixtures f;
  DeviceConfig cfg;
  for (Variant v : kAllVariants) {
    SCOPED_TRACE(variant_name(v));
    GpuMode mode = GpuMode::from(v);
    mode.profile_samples = 8;
    // NN is guided, so the stackless variants batch PC alone; the batch
    // scheduler itself is variant-agnostic either way.
    const bool nn_ok = kernel_variant_eligible<NnKernel>(v);
    auto solo_pc = run_gpu_sim(*f.pc, f.pc_space, cfg, mode);
    std::vector<LaunchSpec> specs;
    specs.push_back(
        LaunchSpec{make_kernel_handle(*f.pc), &f.pc_space, mode, nullptr});
    if (nn_ok)
      specs.push_back(
          LaunchSpec{make_kernel_handle(*f.nn), &f.nn_space, mode, nullptr});
    const LaunchPool run = run_launch_pool(specs, cfg);
    ASSERT_EQ(run.launches.size(), nn_ok ? 2u : 1u);
    EXPECT_EQ(run.launches[0].kernel_name, "point_correlation");
    EXPECT_EQ(run.launches[0].batch_index, 0u);
    expect_matches_solo(run.launches[0], solo_pc);
    if (nn_ok) {
      auto solo_nn = run_gpu_sim(*f.nn, f.nn_space, cfg, mode);
      EXPECT_EQ(run.launches[1].kernel_name, "nearest_neighbor");
      EXPECT_EQ(run.launches[1].batch_index, 1u);
      expect_matches_solo(run.launches[1], solo_nn);
    }
  }
}

TEST(RunGpuBatch, ByteIdenticalUnderStripMinedResidency) {
  BatchFixtures f;
  DeviceConfig cfg;
  GpuMode mode = GpuMode::from(Variant::kAutoNolockstep);
  mode.grid_limit = 3;  // Figure 9b: slots walk several chunks each
  auto solo_pc = run_gpu_sim(*f.pc, f.pc_space, cfg, mode);
  auto solo_nn = run_gpu_sim(*f.nn, f.nn_space, cfg, mode);
  std::vector<LaunchSpec> specs;
  specs.push_back(
      LaunchSpec{make_kernel_handle(*f.pc), &f.pc_space, mode, nullptr});
  specs.push_back(
      LaunchSpec{make_kernel_handle(*f.nn), &f.nn_space, mode, nullptr});
  const LaunchPool run = run_launch_pool(specs, cfg);
  ASSERT_EQ(run.launches.size(), 2u);
  // Two launches, grid 3 each; PC's 16 chunks need 6 rounds of 3 and NN's
  // 15 need 5, so the last round is PC's alone.
  const WaveSchedule ws = wave_schedule(run.shapes);
  EXPECT_EQ(ws.residency, 6u);
  EXPECT_EQ(ws.total_chunks, 31u);  // 16 + 15 logical warps
  EXPECT_EQ(ws.rounds, 6u);
  EXPECT_EQ(ws.switches, 10u);
  expect_matches_solo(run.launches[0], solo_pc);
  expect_matches_solo(run.launches[1], solo_nn);
}

// Lane masks are 32-bit words and the per-lane arrays hold 32 lanes, so
// launch_geometry -- which every launch path goes through -- rejects a
// DeviceConfig::warp_size outside 1..32 before any slot runs.
TEST(LaunchGeometry, RejectsWarpSizeOutsideOneToThirtyTwo) {
  BatchFixtures f;
  const auto expect_rejected = [](auto&& launch) {
    try {
      launch();
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("warp_size"), std::string::npos)
          << e.what();
    }
  };
  // auto_select packs its sampled traversals into warps to price them, so
  // it must reject the device before that, too.
  for (const Variant v : {Variant::kAutoNolockstep, Variant::kAutoLockstep,
                          Variant::kAutoSelect}) {
    const GpuMode mode = GpuMode::from(v);
    for (const int ws : {0, 33, 64}) {
      SCOPED_TRACE(std::string(variant_name(v)) + " warp_size " +
                   std::to_string(ws));
      DeviceConfig cfg;
      cfg.warp_size = ws;
      expect_rejected([&] { (void)run_gpu_sim(*f.pc, f.pc_space, cfg, mode); });
      const std::vector<LaunchSpec> specs{
          LaunchSpec{make_kernel_handle(*f.pc), &f.pc_space, mode, nullptr}};
      expect_rejected([&] { (void)run_launch_pool(specs, cfg); });
    }
  }
  for (const int ws : {1, 32}) {
    DeviceConfig cfg;
    cfg.warp_size = ws;
    const GpuMode mode = GpuMode::from(Variant::kAutoNolockstep);
    EXPECT_EQ(run_gpu_sim(*f.pc, f.pc_space, cfg, mode).results.size(),
              f.pc_pts.size());
  }
}

// Segment ids are address shifts, so a transaction size that is not a
// power of two is rejected up front too, not inside the slot loop.
TEST(LaunchGeometry, RejectsNonPowerOfTwoTransactions) {
  BatchFixtures f;
  DeviceConfig cfg;
  cfg.transaction_bytes = 96;
  const GpuMode mode = GpuMode::from(Variant::kAutoNolockstep);
  EXPECT_THROW((void)run_gpu_sim(*f.pc, f.pc_space, cfg, mode),
               std::invalid_argument);
  const std::vector<LaunchSpec> specs{
      LaunchSpec{make_kernel_handle(*f.pc), &f.pc_space, mode, nullptr}};
  EXPECT_THROW((void)run_launch_pool(specs, cfg), std::invalid_argument);
}

TEST(RunGpuBatch, TypedResultViewChecksStride) {
  BatchFixtures f;
  DeviceConfig cfg;
  std::vector<LaunchSpec> specs;
  specs.push_back(LaunchSpec{make_kernel_handle(*f.nn), &f.nn_space,
                             GpuMode::from(Variant::kAutoNolockstep),
                             nullptr});
  const LaunchPool run = run_launch_pool(specs, cfg);
  ASSERT_TRUE(run.launches[0].ok()) << run.launches[0].error;
  EXPECT_NE(run.launches[0].results_as<NnKernel::Result>(), nullptr);
  struct WrongSize {
    char pad[3];
  };
  EXPECT_EQ(run.launches[0].results_as<WrongSize>(), nullptr);
}

// ---------------------------------------------------------------------
// auto_select resolution inside a batch.
// ---------------------------------------------------------------------

TEST(RunGpuBatch, AutoSelectResolvesPerLaunchAndChargesSampling) {
  BatchFixtures f;
  DeviceConfig cfg;
  GpuMode mode = GpuMode::from(Variant::kAutoSelect);
  mode.profile_samples = 8;
  mode.profile_seed = 3;
  std::vector<LaunchSpec> specs;
  specs.push_back(
      LaunchSpec{make_kernel_handle(*f.pc), &f.pc_space, mode, nullptr});
  const LaunchPool run = run_launch_pool(specs, cfg);
  ASSERT_TRUE(run.launches[0].ok()) << run.launches[0].error;
  ASSERT_TRUE(run.launches[0].selection.has_value());
  EXPECT_GT(run.launches[0].selection->sampling_cycles, 0.0);
  EXPECT_EQ(run.launches[0].selection->samples, 8u);
  // The executed composition is the resolved dispatch, never auto_select.
  EXPECT_NE(run.launches[0].variant, Variant::kAutoSelect);
  EXPECT_EQ(run.launches[0].variant, run.launches[0].selection->chosen);
}

TEST(RunGpuBatch, AutoSelectRejectsZeroSamples) {
  BatchFixtures f;
  DeviceConfig cfg;
  GpuMode mode = GpuMode::from(Variant::kAutoSelect);
  mode.profile_samples = 0;
  std::vector<LaunchSpec> specs;
  specs.push_back(
      LaunchSpec{make_kernel_handle(*f.pc), &f.pc_space, mode, nullptr});
  EXPECT_THROW((void)run_launch_pool(specs, cfg), std::invalid_argument);
}

TEST(KernelHandle, PrepareRejectsUnresolvedAutoSelect) {
  BatchFixtures f;
  DeviceConfig cfg;
  auto handle = make_kernel_handle(*f.pc);
  EXPECT_EQ(std::string(handle->name()), "point_correlation");
  EXPECT_THROW(handle->prepare(f.pc_space, cfg,
                               GpuMode::from(Variant::kAutoSelect), nullptr,
                               nullptr, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Per-launch overflow isolation.
// ---------------------------------------------------------------------

// Full binary tree deep enough that stack_bound() = 1 overflows every
// composition's stack while a sibling launch stays healthy.
class DeepKernel {
 public:
  struct State {
    std::uint32_t pid = 0;
  };
  using Result = std::uint32_t;
  using UArg = Empty;
  using LArg = Empty;
  static constexpr const char* kName = "deep_micro";
  static constexpr int kFanout = 2;
  static constexpr int kNumCallSets = 1;
  static constexpr bool kCallSetsEquivalent = true;

  DeepKernel(const LinearTree& tree, std::size_t n, GpuAddressSpace& space)
      : tree_(&tree), n_(n) {
    nodes_ = space.register_buffer("deep_nodes", 4,
                                   static_cast<std::uint64_t>(tree.n_nodes));
  }

  [[nodiscard]] NodeId root() const { return 0; }
  [[nodiscard]] std::size_t num_points() const { return n_; }
  [[nodiscard]] UArg root_uarg() const { return {}; }
  [[nodiscard]] LArg root_larg() const { return {}; }
  [[nodiscard]] int stack_bound() const { return 1; }

  template <class Mem>
  State init(std::uint32_t pid, Mem&, int) const {
    return State{pid};
  }

  template <class Mem>
  bool visit(NodeId n, const UArg&, const LArg&, State&, Mem& mem,
             int lane) const {
    mem.lane_load(lane, nodes_, static_cast<std::uint64_t>(n));
    return !tree_->is_leaf(n);
  }

  [[nodiscard]] int choose_callset(NodeId, const State&) const { return 0; }

  template <class Mem>
  int children(NodeId n, const UArg&, int, const State&,
               Child<UArg, LArg>* out, Mem&, int) const {
    int cnt = 0;
    for (int k = 0; k < 2; ++k)
      if (tree_->child(n, k) != kNullNode) out[cnt++].node = tree_->child(n, k);
    return cnt;
  }

  [[nodiscard]] Result finish(const State& st) const { return st.pid; }

 private:
  const LinearTree* tree_;
  std::size_t n_;
  BufferId nodes_;
};

// Left-biased DFS layout, as every real builder emits.
void grow_full_subtree(LinearTree& t, NodeId parent, int d, int depth) {
  if (d > depth) return;
  for (int k = 0; k < 2; ++k) {
    NodeId c = t.add_node(parent, d);
    t.set_child(parent, k, c);
    if (k == 0) grow_full_subtree(t, c, d + 1, depth);
  }
  // Right subtree after the whole left subtree (preorder).
  grow_full_subtree(t, t.child(parent, 1), d + 1, depth);
}

LinearTree full_binary_tree(int depth) {
  LinearTree t;
  t.fanout = 2;
  NodeId root = t.add_node(kNullNode, 0);
  grow_full_subtree(t, root, 1, depth);
  t.validate();
  return t;
}

TEST(RunGpuBatch, OverflowIsolatedToItsLaunch) {
  LinearTree deep = full_binary_tree(10);
  GpuAddressSpace deep_space;
  DeepKernel deep_k(deep, 64, deep_space);

  BatchFixtures f;
  DeviceConfig cfg;
  GpuMode mode = GpuMode::from(Variant::kAutoNolockstep);
  auto solo_nn = run_gpu_sim(*f.nn, f.nn_space, cfg, mode);
  // The deep kernel alone aborts its solo run...
  EXPECT_THROW(run_gpu_sim(deep_k, deep_space, cfg, mode), std::runtime_error);

  // ...but batched, it fails in place without poisoning the sibling.
  std::vector<LaunchSpec> specs;
  specs.push_back(
      LaunchSpec{make_kernel_handle(deep_k), &deep_space, mode, nullptr});
  specs.push_back(
      LaunchSpec{make_kernel_handle(*f.nn), &f.nn_space, mode, nullptr});
  const LaunchPool run = run_launch_pool(specs, cfg);
  ASSERT_EQ(run.launches.size(), 2u);
  EXPECT_FALSE(run.launches[0].ok());
  EXPECT_NE(run.launches[0].error.find("kernel deep_micro (batch 0)"),
            std::string::npos)
      << run.launches[0].error;
  EXPECT_NE(run.launches[0].error.find("rope stack overflow"),
            std::string::npos);
  EXPECT_TRUE(run.launches[0].results.empty());
  EXPECT_EQ(run.launches[0].stats.lane_visits, 0u);
  expect_matches_solo(run.launches[1], solo_nn);
}

// ---------------------------------------------------------------------
// kChunk trace events carry the owning kernel id; solo traces never do.
// ---------------------------------------------------------------------

TEST(RunGpuBatch, ChunkTraceEventsCarryKernelId) {
  BatchFixtures f;
  DeviceConfig cfg;
  GpuMode mode = GpuMode::from(Variant::kAutoNolockstep);

  // Big rings: kChunk opens each chunk, so it would be the first event a
  // saturated ring drops.
  obs::TraceSink solo_trace(1 << 16);
  (void)run_gpu_sim(*f.nn, f.nn_space, cfg, mode, &solo_trace);
  for (const obs::TraceEvent& e : solo_trace.merged())
    EXPECT_NE(e.kind, obs::TraceEventKind::kChunk);

  obs::TraceSink pc_trace(1 << 16), nn_trace(1 << 16);
  std::vector<LaunchSpec> specs;
  specs.push_back(
      LaunchSpec{make_kernel_handle(*f.pc), &f.pc_space, mode, &pc_trace});
  specs.push_back(
      LaunchSpec{make_kernel_handle(*f.nn), &f.nn_space, mode, &nn_trace});
  const LaunchPool run = run_launch_pool(specs, cfg);
  ASSERT_TRUE(run.launches[0].ok()) << run.launches[0].error;
  ASSERT_TRUE(run.launches[1].ok()) << run.launches[1].error;

  auto count_chunks = [](const obs::TraceSink& sink, std::uint32_t want_id) {
    std::size_t n = 0;
    for (const obs::TraceEvent& e : sink.merged())
      if (e.kind == obs::TraceEventKind::kChunk) {
        EXPECT_EQ(e.aux, want_id);
        ++n;
      }
    return n;
  };
  // One kChunk per logical warp, tagged with the launch's batch index.
  EXPECT_EQ(count_chunks(pc_trace, 0), run.launches[0].n_warps);
  EXPECT_EQ(count_chunks(nn_trace, 1), run.launches[1].n_warps);
}

}  // namespace
}  // namespace tt
