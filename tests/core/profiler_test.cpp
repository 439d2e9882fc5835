#include "core/profiler.h"

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/pq/point_queries.h"
#include "bench_algos/vp/vantage_point.h"
#include "core/kernel_compose.h"
#include "core/launch.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "spatial/vptree.h"

namespace tt {
namespace {

TEST(Jaccard, Basics) {
  EXPECT_DOUBLE_EQ(traversal_jaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(traversal_jaccard({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(traversal_jaccard({1, 2}, {3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(traversal_jaccard({1, 2, 3}, {2, 3, 4}), 0.5);
}

TEST(Jaccard, DuplicatesIgnored) {
  EXPECT_DOUBLE_EQ(traversal_jaccard({1, 1, 2}, {2, 2, 1}), 1.0);
}

TEST(Jaccard, UnsortedInputsHandled) {
  EXPECT_DOUBLE_EQ(traversal_jaccard({3, 1, 2}, {2, 3, 1}), 1.0);
}

struct PcFixture {
  PointSet pts;
  KdTree tree;
  GpuAddressSpace space;
  float radius;

  explicit PcFixture(bool sorted)
      : pts(gen_covtype_like(2000, 7, 23)), tree(), space() {
    auto perm = sorted ? tree_order(pts, 8) : shuffled_order(pts.size(), 23);
    pts.permute(perm);
    tree = build_kdtree(pts, 8);
    radius = pc_pick_radius(pts, 20, 23);
  }
};

TEST(Profiler, RecordTraversalStartsAtRoot) {
  PcFixture s(true);
  PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
  auto visits = record_traversal(k, 0);
  ASSERT_FALSE(visits.empty());
  EXPECT_EQ(visits.front(), 0);
}

// The similarity lift is a diagnostic now, but it still separates the
// regimes by a wide margin: well above this on sorted inputs, near 0 on
// shuffled ones.
constexpr double kClearLift = 0.15;

TEST(Profiler, SortedInputLooksSorted) {
  PcFixture s(true);
  PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
  ProfileReport r = profile_similarity(k, 32, 1);
  EXPECT_GT(r.lift(), kClearLift);
}

TEST(Profiler, ShuffledInputLooksUnsorted) {
  PcFixture s(false);
  PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
  ProfileReport r = profile_similarity(k, 32, 1);
  // On a shuffled input, adjacent points *are* a random pair, so the
  // adjacent mean should sit near the random-pair baseline.
  EXPECT_LT(std::abs(r.lift()), kClearLift);
  PcFixture sorted(true);
  PointCorrelationKernel ks(sorted.tree, sorted.pts, sorted.radius,
                            sorted.space);
  ProfileReport rs = profile_similarity(ks, 32, 1);
  EXPECT_GT(rs.mean_similarity, r.mean_similarity);
  EXPECT_GT(rs.lift(), r.lift());
}

// Nothing to sample: both compositions price at 0 and the tie dispatches
// lockstep, the composition a sorted input gets.
TEST(Profiler, TinyInputTreatedAsSorted) {
  PointSet pts = gen_uniform(1, 3, 1);
  KdTree tree = build_kdtree(pts, 4);
  GpuAddressSpace space;
  PointCorrelationKernel k(tree, pts, 0.1f, space);
  const DeviceConfig dev;
  ProfileReport r = profile_similarity(k, 8, 1, dev, &space);
  EXPECT_EQ(r.sampled_visits, 0u);  // nothing sampled => nothing charged
  EXPECT_TRUE(r.traversal_visits.empty());
  EXPECT_TRUE(r.warps.empty());
  const ResolvedLaunch launch = resolve_auto_select(
      GpuMode::from(Variant::kAutoSelect), r, k.num_points(), dev);
  EXPECT_TRUE(launch.mode.lockstep);
  EXPECT_EQ(launch.selection.chosen, Variant::kAutoLockstep);
  EXPECT_EQ(launch.selection.sampling_cycles, 0.0);
}

// Guided kernels (kNumCallSets > 1) route record_traversal through
// choose_callset; the sampler must still separate sorted from shuffled.

TEST(Profiler, GuidedNnSortedMoreSimilarThanShuffled) {
  PointSet pts = gen_covtype_like(2000, 7, 29);
  PointSet sorted = pts, shuffled = pts;
  sorted.permute(tree_order(sorted, 8));
  shuffled.permute(shuffled_order(shuffled.size(), 29));

  GpuAddressSpace space_s, space_u;
  KdTreeNN tree_s = build_kdtree_nn(sorted);
  KdTreeNN tree_u = build_kdtree_nn(shuffled);
  NnKernel ks(tree_s, sorted, space_s);
  NnKernel ku(tree_u, shuffled, space_u);
  static_assert(NnKernel::kNumCallSets > 1);

  ProfileReport rs = profile_similarity(ks, 32, 1);
  ProfileReport ru = profile_similarity(ku, 32, 1);
  EXPECT_GT(rs.mean_similarity, ru.mean_similarity);
  // Guided traversals never reach the raw similarity an unguided kernel
  // measures on sorted inputs, but the baseline-normalized lift still
  // separates both orders.
  EXPECT_GT(rs.lift(), kClearLift);
  EXPECT_LT(ru.lift(), kClearLift);
  EXPECT_GT(rs.sampled_visits, 0u);
  EXPECT_GT(ru.sampled_visits, 0u);
}

TEST(Profiler, GuidedVpSortedMoreSimilarThanShuffled) {
  PointSet pts = gen_covtype_like(2000, 7, 31);
  PointSet sorted = pts, shuffled = pts;
  sorted.permute(tree_order(sorted, 8));
  shuffled.permute(shuffled_order(shuffled.size(), 31));

  GpuAddressSpace space_s, space_u;
  VpTree tree_s = build_vptree(sorted, 7);
  VpTree tree_u = build_vptree(shuffled, 7);
  VpKernel ks(tree_s, sorted, space_s);
  VpKernel ku(tree_u, shuffled, space_u);
  static_assert(VpKernel::kNumCallSets > 1);

  ProfileReport rs = profile_similarity(ks, 32, 1);
  ProfileReport ru = profile_similarity(ku, 32, 1);
  EXPECT_GT(rs.mean_similarity, ru.mean_similarity);
  EXPECT_GT(rs.lift(), kClearLift);
  EXPECT_LT(ru.lift(), kClearLift);
}

TEST(Profiler, SampledVisitsGrowWithSamples) {
  PcFixture s(true);
  PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
  ProfileReport few = profile_similarity(k, 4, 1);
  ProfileReport many = profile_similarity(k, 64, 1);
  // Every sampled traversal visits at least the root, twice per pair.
  EXPECT_GE(few.sampled_visits, 2u * few.samples);
  EXPECT_GT(many.sampled_visits, few.sampled_visits);
  // One lane per sampled traversal, pair s on lanes 2s and 2s+1; the lanes
  // account for every sampled visit.
  for (const ProfileReport* r : {&few, &many}) {
    ASSERT_EQ(r->traversal_visits.size(), 2 * r->samples);
    std::uint64_t sum = 0;
    for (std::uint32_t v : r->traversal_visits) {
      EXPECT_GE(v, 1u);
      sum += v;
    }
    EXPECT_EQ(sum, r->sampled_visits);
  }
}

// The sampler's lanes are warp-aligned runs of adjacent points: every run
// starts on a warp boundary of the launch, covers an even number of
// points (two at least, at most a warp) and so holds whole pairs, pair s
// on lanes 2s and 2s + 1; its counters are its lanes' Table-2 quantities.
void expect_warp_aligned_runs(const PointCorrelationKernel& k,
                              const ProfileReport& r, std::size_t samples,
                              const DeviceConfig& dev, bool with_segments) {
  ASSERT_EQ(r.samples, samples);
  ASSERT_EQ(r.traversal_visits.size(), 2 * samples);
  const auto ws = static_cast<std::uint32_t>(dev.warp_size);
  std::size_t lane = 0;
  std::uint64_t sum = 0;
  for (const SampledWarp& w : r.warps) {
    SCOPED_TRACE("run at point " + std::to_string(w.first_point));
    EXPECT_EQ(w.first_point % ws, 0u);
    EXPECT_EQ(lane % 2, 0u);
    EXPECT_EQ(w.lanes % 2, 0u);
    EXPECT_GE(w.lanes, 2u);
    EXPECT_LE(w.lanes, std::max(2u, ws));
    EXPECT_LE(w.first_point + w.lanes, k.num_points());
    std::vector<NodeId> all;
    std::uint64_t visits = 0;
    std::uint32_t longest = 0;
    for (std::uint32_t i = 0; i < w.lanes; ++i, ++lane) {
      const std::vector<NodeId> seen = record_traversal(k, w.first_point + i);
      ASSERT_LT(lane, r.traversal_visits.size());
      EXPECT_EQ(r.traversal_visits[lane], seen.size());
      visits += seen.size();
      longest = std::max(longest, static_cast<std::uint32_t>(seen.size()));
      all.insert(all.end(), seen.begin(), seen.end());
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    EXPECT_EQ(w.lane_visits, visits);
    EXPECT_EQ(w.longest, longest);
    EXPECT_EQ(w.union_visits, all.size());
    EXPECT_EQ(w.lockstep_segments.empty(), !with_segments);
    EXPECT_EQ(w.nolockstep_segments.empty(), !with_segments);
    sum += visits;
  }
  EXPECT_EQ(lane, 2 * samples);
  EXPECT_EQ(sum, r.sampled_visits);
  std::uint64_t lanes_sum = 0;
  for (std::uint32_t v : r.traversal_visits) lanes_sum += v;
  EXPECT_EQ(lanes_sum, r.sampled_visits);
}

TEST(Profiler, SamplesWarpAlignedRuns) {
  PcFixture s(false);
  PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
  const DeviceConfig dev;
  // 32 samples fill two warps, drawn distinct.
  const ProfileReport r = profile_similarity(k, 32, 1, dev, &s.space);
  expect_warp_aligned_runs(k, r, 32, dev, true);
  ASSERT_EQ(r.warps.size(), 2u);
  EXPECT_EQ(r.warps[0].lanes, 32u);
  EXPECT_EQ(r.warps[1].lanes, 32u);
  EXPECT_NE(r.warps[0].first_point, r.warps[1].first_point);
  // Without an address space the sampler records the same traversals but
  // no segments.
  const ProfileReport bare = profile_similarity(k, 32, 1, dev);
  expect_warp_aligned_runs(k, bare, 32, dev, false);
  EXPECT_EQ(bare.traversal_visits, r.traversal_visits);
  // One sample is one two-lane run.
  const ProfileReport one = profile_similarity(k, 1, 1, dev, &s.space);
  expect_warp_aligned_runs(k, one, 1, dev, true);
  EXPECT_EQ(one.warps.size(), 1u);
  // 24 samples: a full warp, then a 16-lane run.
  const ProfileReport partial = profile_similarity(k, 24, 1, dev, &s.space);
  expect_warp_aligned_runs(k, partial, 24, dev, true);
  ASSERT_EQ(partial.warps.size(), 2u);
  EXPECT_EQ(partial.warps[1].lanes, 16u);
}

TEST(Profiler, SamplerShapesStayValid) {
  // Fewer points than a warp: every run is the launch's only warp, cut to
  // its even part.
  PointSet pts = gen_uniform(11, 3, 5);
  KdTree tree = build_kdtree(pts, 4);
  GpuAddressSpace space;
  PointCorrelationKernel small(tree, pts, 0.3f, space);
  const DeviceConfig dev;
  const ProfileReport r = profile_similarity(small, 32, 1, dev, &space);
  expect_warp_aligned_runs(small, r, 32, dev, true);
  for (const SampledWarp& w : r.warps) {
    EXPECT_EQ(w.first_point, 0u);
    EXPECT_LE(w.lanes, 10u);
  }
  // An 8-lane warp: runs of at most 8 lanes on 8-point boundaries.
  PcFixture s(false);
  PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
  DeviceConfig narrow;
  narrow.warp_size = 8;
  const ProfileReport r8 = profile_similarity(k, 32, 1, narrow, &s.space);
  expect_warp_aligned_runs(k, r8, 32, narrow, true);
  EXPECT_EQ(r8.warps.size(), 8u);
  // A device the memory front end cannot model is rejected up front.
  DeviceConfig none;
  none.warp_size = 0;
  EXPECT_THROW((void)profile_similarity(k, 32, 1, none, &s.space),
               std::invalid_argument);
}

// The sampler records its lanes and models its runs on the OpenMP team;
// the draws come first and every result lands in lane order, so the
// report is the same for any team size. Compared field by field, both
// segment streams included, under 1 and 4 threads for an unguided, a
// guided and a fused kernel.
void expect_same_report(const ProfileReport& a, const ProfileReport& b) {
  EXPECT_EQ(a.mean_similarity, b.mean_similarity);
  EXPECT_EQ(a.baseline_similarity, b.baseline_similarity);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.sampled_visits, b.sampled_visits);
  EXPECT_EQ(a.traversal_visits, b.traversal_visits);
  ASSERT_EQ(a.warps.size(), b.warps.size());
  for (std::size_t i = 0; i < a.warps.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    const SampledWarp& x = a.warps[i];
    const SampledWarp& y = b.warps[i];
    EXPECT_EQ(x.first_point, y.first_point);
    EXPECT_EQ(x.lanes, y.lanes);
    EXPECT_EQ(x.union_visits, y.union_visits);
    EXPECT_EQ(x.longest, y.longest);
    EXPECT_EQ(x.lane_visits, y.lane_visits);
    EXPECT_EQ(x.callset_votes, y.callset_votes);
    EXPECT_EQ(x.lockstep_segments, y.lockstep_segments);
    EXPECT_EQ(x.nolockstep_segments, y.nolockstep_segments);
  }
}

template <class K>
void expect_thread_count_independent(const K& k,
                                     const GpuAddressSpace& space) {
  const int saved = omp_get_max_threads();
  ProfileReport r[2];
  for (int pass = 0; pass < 2; ++pass) {
    omp_set_num_threads(pass == 0 ? 1 : 4);
    r[pass] = profile_similarity(k, 32, 7, DeviceConfig{}, &space);
  }
  omp_set_num_threads(saved);
  ASSERT_EQ(r[0].warps.size(), 2u);
  EXPECT_FALSE(r[0].warps[0].lockstep_segments.empty());
  expect_same_report(r[0], r[1]);
}

TEST(Profiler, ReportIdenticalAcrossThreadCounts) {
  {
    SCOPED_TRACE("unguided: point correlation");
    PcFixture s(false);
    PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
    expect_thread_count_independent(k, s.space);
  }
  {
    SCOPED_TRACE("guided: nearest neighbor");
    PointSet pts = gen_covtype_like(2000, 7, 29);
    KdTreeNN tree = build_kdtree_nn(pts);
    GpuAddressSpace space;
    NnKernel k(tree, pts, space);
    static_assert(NnKernel::kNumCallSets > 1);
    expect_thread_count_independent(k, space);
  }
  {
    SCOPED_TRACE("fused: rope k-NN + rope NN");
    PointSet pts = gen_covtype_like(700, 7, 21);
    KdTree tree = build_kdtree(pts, 8);
    GpuAddressSpace space;
    RopeKnnKernel knn(tree, pts, 8, space);
    RopeNnKernel nn(tree, pts, space);
    auto fused = fuse(knn, nn);
    static_assert(kernel_shares_node_loads<decltype(fused)>);
    expect_thread_count_independent(fused, space);
  }
}

}  // namespace
}  // namespace tt
