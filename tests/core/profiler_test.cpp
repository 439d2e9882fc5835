#include "core/profiler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/vp/vantage_point.h"
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

TEST(Profiler, SortedInputLooksSorted) {
  PcFixture s(true);
  PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
  ProfileReport r = profile_similarity(k, 32, 1);
  EXPECT_TRUE(r.looks_sorted);
  EXPECT_GT(r.lift(), kSimilarityLiftThreshold);
}

TEST(Profiler, ShuffledInputLooksUnsorted) {
  PcFixture s(false);
  PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
  ProfileReport r = profile_similarity(k, 32, 1);
  EXPECT_FALSE(r.looks_sorted);
  // On a shuffled input, adjacent points *are* a random pair, so the
  // adjacent mean should sit near the random-pair baseline.
  EXPECT_LT(std::abs(r.lift()), kSimilarityLiftThreshold);
  PcFixture sorted(true);
  PointCorrelationKernel ks(sorted.tree, sorted.pts, sorted.radius,
                            sorted.space);
  ProfileReport rs = profile_similarity(ks, 32, 1);
  EXPECT_GT(rs.mean_similarity, r.mean_similarity);
  EXPECT_GT(rs.lift(), r.lift());
}

TEST(Profiler, TinyInputTreatedAsSorted) {
  PointSet pts = gen_uniform(1, 3, 1);
  KdTree tree = build_kdtree(pts, 4);
  GpuAddressSpace space;
  PointCorrelationKernel k(tree, pts, 0.1f, space);
  ProfileReport r = profile_similarity(k, 8, 1);
  EXPECT_TRUE(r.looks_sorted);
  EXPECT_EQ(r.sampled_visits, 0u);  // nothing sampled => nothing charged
  EXPECT_TRUE(r.traversal_visits.empty());
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
  // classifies both orders correctly.
  EXPECT_TRUE(rs.looks_sorted);
  EXPECT_FALSE(ru.looks_sorted);
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
  EXPECT_TRUE(rs.looks_sorted);
  EXPECT_FALSE(ru.looks_sorted);
}

TEST(Profiler, ThresholdBoundaryIsInclusive) {
  PcFixture s(true);
  PointCorrelationKernel k(s.tree, s.pts, s.radius, s.space);
  ProfileReport base = profile_similarity(k, 16, 1);
  ASSERT_GT(base.lift(), 0.0);

  // lift >= threshold counts as sorted, so a threshold exactly at the
  // measured lift still selects lockstep...
  ProfileReport at = profile_similarity(k, 16, 1, base.lift());
  EXPECT_EQ(at.threshold, base.lift());
  EXPECT_TRUE(at.looks_sorted);

  // ...and the next representable threshold above the lift does not.
  ProfileReport above =
      profile_similarity(k, 16, 1, std::nextafter(base.lift(), 2.0));
  EXPECT_FALSE(above.looks_sorted);
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

}  // namespace
}  // namespace tt
