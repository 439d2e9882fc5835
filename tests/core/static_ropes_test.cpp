#include "core/static_ropes.h"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <span>
#include <vector>

#include "bench_algos/bh/barnes_hut.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "core/launch.h"
#include "core/serving.h"
#include "data/generators.h"
#include "spatial/kdtree.h"
#include "spatial/octree.h"

namespace tt {
namespace {

// The prior-work static-ropes walk on the simulated GPU: a stackless
// variant with the shared-memory node cache off.
GpuMode static_ropes_mode(bool lockstep) {
  GpuMode m = GpuMode::from(lockstep ? Variant::kStacklessLockstep
                                     : Variant::kStacklessNolockstep);
  m.smem_node_cache = false;
  return m;
}

TEST(StaticRopes, ChainTreeRopes) {
  // Chain a -> b -> c: every rope is end-of-traversal (no siblings).
  LinearTree t;
  t.fanout = 2;
  NodeId a = t.add_node(kNullNode, 0);
  NodeId b = t.add_node(a, 1);
  t.set_child(a, 0, b);
  NodeId c = t.add_node(b, 2);
  t.set_child(b, 0, c);
  StaticRopes r = install_ropes(t);
  EXPECT_EQ(r.rope[a], StaticRopes::kEndOfTraversal);
  EXPECT_EQ(r.rope[b], StaticRopes::kEndOfTraversal);
  EXPECT_EQ(r.rope[c], StaticRopes::kEndOfTraversal);
}

TEST(StaticRopes, BalancedTreeRopes) {
  // Figure 2's shape: root(0){ left(1){3,4}, right(2)... } in DFS ids:
  //   0 -> {1 -> {2, 3}, 4 -> {5, 6}}
  LinearTree t;
  t.fanout = 2;
  NodeId n0 = t.add_node(kNullNode, 0);
  NodeId n1 = t.add_node(n0, 1);
  t.set_child(n0, 0, n1);
  NodeId n2 = t.add_node(n1, 2);
  t.set_child(n1, 0, n2);
  NodeId n3 = t.add_node(n1, 2);
  t.set_child(n1, 1, n3);
  NodeId n4 = t.add_node(n0, 1);
  t.set_child(n0, 1, n4);
  NodeId n5 = t.add_node(n4, 2);
  t.set_child(n4, 0, n5);
  NodeId n6 = t.add_node(n4, 2);
  t.set_child(n4, 1, n6);
  StaticRopes r = install_ropes(t);
  // Skipping the left subtree lands on the right subtree (the paper's
  // "truncated at node 2 -> rope leads to node 5" example).
  EXPECT_EQ(r.rope[n1], n4);
  EXPECT_EQ(r.rope[n2], n3);
  EXPECT_EQ(r.rope[n3], n4);
  EXPECT_EQ(r.rope[n5], n6);
  EXPECT_EQ(r.rope[n6], StaticRopes::kEndOfTraversal);
  EXPECT_EQ(r.rope[n0], StaticRopes::kEndOfTraversal);
}

TEST(StaticRopes, RopesPointForward) {
  PointSet pts = gen_covtype_like(1000, 7, 1);
  KdTree tree = build_kdtree(pts, 8);
  StaticRopes r = install_ropes(tree.topo);
  for (NodeId n = 0; n < tree.topo.n_nodes; ++n) {
    if (r.rope[n] == StaticRopes::kEndOfTraversal) continue;
    EXPECT_GT(r.rope[n], n);
    EXPECT_LT(r.rope[n], tree.topo.n_nodes);
  }
}

TEST(StaticRopes, CpuRopeTraversalMatchesRecursive) {
  PointSet pts = gen_covtype_like(600, 7, 2);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  float r = pc_pick_radius(pts, 16, 2);
  PointCorrelationKernel k(tree, pts, r, space);
  StaticRopes ropes = install_ropes(tree.topo);
  auto rope_results = run_cpu_ropes(k, ropes);
  auto rec = run_cpu(k, CpuVariant::kRecursive, 1);
  EXPECT_EQ(rope_results, rec.results);
}

TEST(StaticRopes, GpuRopesMatchRecursiveBothVariants) {
  PointSet pts = gen_uniform(700, 7, 3);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  PointCorrelationKernel k(tree, pts, 0.3f, space);
  auto rec = run_cpu(k, CpuVariant::kRecursive, 1);
  DeviceConfig cfg;
  auto gn = run_gpu_sim(k, space, cfg, static_ropes_mode(/*lockstep=*/false));
  auto gl = run_gpu_sim(k, space, cfg, static_ropes_mode(/*lockstep=*/true));
  EXPECT_EQ(gn.results, rec.results);
  EXPECT_EQ(gl.results, rec.results);
}

TEST(StaticRopes, BarnesHutRopeTraversalMatches) {
  BodySet b = gen_plummer(600, 4);
  Octree tree = build_octree(b.pos, b.mass);
  GpuAddressSpace space;
  BarnesHutKernel k(tree, b.pos, 0.5f, 1e-4f, space);
  auto rec = run_cpu(k, CpuVariant::kRecursive, 1);
  DeviceConfig cfg;
  auto gn = run_gpu_sim(k, space, cfg, static_ropes_mode(false));
  for (std::size_t i = 0; i < b.pos.size(); ++i) {
    EXPECT_NEAR(gn.results[i].ax, rec.results[i].ax,
                1e-4f * std::max(1.f, std::fabs(rec.results[i].ax)))
        << i;
  }
}

TEST(StaticRopes, LockstepVisitsUnionOnce) {
  // The lockstep rope warp visits each node at most once (DFS ids only
  // move forward), so warp pops <= tree size.
  PointSet pts = gen_geocity_like(512, 5);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  float r = pc_pick_radius(pts, 16, 5);
  PointCorrelationKernel k(tree, pts, r, space);
  DeviceConfig cfg;
  auto gl = run_gpu_sim(k, space, cfg, static_ropes_mode(true));
  EXPECT_LE(gl.stats.warp_pops,
            gl.n_warps * static_cast<std::size_t>(tree.topo.n_nodes));
}

TEST(StaticRopes, NoStackTrafficComparedToAutoropes) {
  PointSet pts = gen_covtype_like(1024, 7, 6);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  float r = pc_pick_radius(pts, 16, 6);
  PointCorrelationKernel k(tree, pts, r, space);
  DeviceConfig cfg;
  auto rope_run = run_gpu_sim(k, space, cfg, static_ropes_mode(false));
  auto auto_run = run_gpu_sim(k, space, cfg, GpuMode{true, false});
  // Same node visits, strictly less memory traffic (no rope stack).
  EXPECT_EQ(rope_run.stats.lane_visits, auto_run.stats.lane_visits);
  EXPECT_LT(rope_run.stats.dram_transactions,
            auto_run.stats.dram_transactions);
}

// Emits a random subtree rooted at a fresh node in left-biased DFS order
// (children recurse immediately, in ascending slot order, with random
// interior slot gaps -- slots keep semantic identity, so gaps are legal).
// Returns the subtree's node count; `subtree[n]` records it per node.
std::int64_t grow_random(LinearTree& t, std::mt19937& rng, NodeId parent,
                         int slot, int depth, int max_depth,
                         std::int64_t budget,
                         std::vector<std::int64_t>& subtree) {
  NodeId n = t.add_node(parent, depth);
  if (parent != kNullNode) t.set_child(parent, slot, n);
  subtree.push_back(1);
  if (depth < max_depth) {
    for (int s = 0; s < t.fanout; ++s) {
      if (t.n_nodes >= budget) break;
      if (rng() % 2 == 0) continue;  // random slot gap / child count
      subtree[n] +=
          grow_random(t, rng, n, s, depth + 1, max_depth, budget, subtree);
    }
  }
  return subtree[n];
}

// Fuzz the escape-index invariant across randomized shapes: every rope is
// either n + subtree_size(n) -- the next DFS id outside n's subtree -- or
// kEndOfTraversal, and kEndOfTraversal occurs exactly on the rightmost
// spine (the nodes whose subtree runs to the end of the DFS order). The
// stackless executor variants lean on this directly: descend is n+1,
// escape is rope[n], so the invariant is what makes them byte-identical
// to the stack-based compositions.
TEST(StaticRopes, FuzzEscapeIndexMatchesSubtreeSize) {
  std::mt19937 rng(20260809);
  for (int iter = 0; iter < 60; ++iter) {
    LinearTree t;
    t.fanout = std::array<int, 3>{2, 4, 8}[iter % 3];
    const int max_depth = 1 + static_cast<int>(rng() % 10);
    const std::int64_t budget = 1 + static_cast<std::int64_t>(rng() % 1500);
    std::vector<std::int64_t> subtree;
    grow_random(t, rng, kNullNode, 0, 0, max_depth, budget, subtree);
    ASSERT_NO_THROW(t.validate()) << "iter " << iter;
    StaticRopes r = install_ropes(t);
    ASSERT_EQ(r.rope.size(), static_cast<std::size_t>(t.n_nodes));

    // The rightmost spine, computed independently of ids: follow the last
    // present child from the root.
    std::vector<bool> spine(static_cast<std::size_t>(t.n_nodes), false);
    for (NodeId cur = 0; cur != kNullNode;) {
      spine[static_cast<std::size_t>(cur)] = true;
      NodeId last = kNullNode;
      for (int s = 0; s < t.fanout; ++s)
        if (t.child(cur, s) != kNullNode) last = t.child(cur, s);
      cur = last;
    }

    for (NodeId n = 0; n < t.n_nodes; ++n) {
      if (spine[static_cast<std::size_t>(n)]) {
        EXPECT_EQ(n + subtree[static_cast<std::size_t>(n)], t.n_nodes)
            << "iter " << iter << " node " << n;
        EXPECT_EQ(r.rope[n], StaticRopes::kEndOfTraversal)
            << "iter " << iter << " node " << n;
      } else {
        EXPECT_EQ(static_cast<std::int64_t>(r.rope[n]),
                  n + subtree[static_cast<std::size_t>(n)])
            << "iter " << iter << " node " << n;
      }
    }
  }
}

// One canonical ineligibility spelling everywhere: the free function is
// the single source, and every surface -- run_gpu_sim's throw, the launch
// API's throw, the type-erased handle, the launch pool's admission error
// rows, the harness's "skipped:" rows (same call, see harness.cpp) --
// renders exactly that string behind its own prefix.
TEST(VariantEligibility, OneCanonicalReasonAcrossSurfaces) {
  PointSet pts = gen_covtype_like(256, 7, 11);
  KdTreeNN tree = build_kdtree_nn(pts);
  GpuAddressSpace space;
  NnKernel k(tree, pts, space);  // guided => the whole stackless family
  DeviceConfig cfg;
  for (Variant v : {Variant::kStacklessLockstep, Variant::kStacklessNolockstep,
                    Variant::kIndexWalk}) {
    SCOPED_TRACE(variant_name(v));
    const std::string reason = kernel_variant_ineligible_reason(k, v);
    EXPECT_EQ(reason, std::string("variant ") + variant_name(v) +
                          " requires a stackless-compatible (unguided, "
                          "rope-carrying) kernel; nearest_neighbor is "
                          "ineligible");

    try {
      run_gpu_sim(k, space, cfg, GpuMode::from(v));
      FAIL() << "run_gpu_sim accepted an ineligible pairing";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), "run_gpu_sim: " + reason);
    }

    LaunchSpec spec;
    spec.kernel = make_kernel_handle(k);
    spec.space = &space;
    spec.mode = GpuMode::from(v);
    EXPECT_EQ(spec.kernel->variant_ineligible_reason(v), reason);
    try {
      (void)spec.kernel->prepare(space, cfg, spec.mode, nullptr, nullptr, 0);
      FAIL() << "KernelHandle::prepare accepted an ineligible pairing";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), "launch: " + reason);
    }
    const LaunchPool run =
        run_launch_pool(std::span<const LaunchSpec>(&spec, 1), cfg);
    ASSERT_EQ(run.launches.size(), 1u);
    EXPECT_FALSE(run.launches[0].ok());
    EXPECT_EQ(run.launches[0].error, std::string("kernel ") +
                                         spec.kernel->name() +
                                         " (batch 0): " + reason);
  }
  // Eligible pairings report no reason at all.
  for (Variant v : kAllVariants) {
    if (!variant_is_stackless(v)) {
      EXPECT_EQ(kernel_variant_ineligible_reason(k, v), "") << variant_name(v);
    }
  }
}

// The runtime leg variant_eligible can't see: a stackless-compatible
// kernel whose rope array is empty (e.g. a BFS relayout stripped it).
struct RopelessPc : PointCorrelationKernel {
  using PointCorrelationKernel::PointCorrelationKernel;
  [[nodiscard]] const StaticRopes& ropes() const { return none_; }
  StaticRopes none_;
};

TEST(VariantEligibility, EmptyRopesReasonMatchesAcrossSurfaces) {
  PointSet pts = gen_uniform(200, 3, 12);
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  float r = pc_pick_radius(pts, 16, 12);
  RopelessPc k(tree, pts, r, space);
  const Variant v = Variant::kStacklessNolockstep;
  const std::string reason = kernel_variant_ineligible_reason(k, v);
  EXPECT_EQ(reason,
            std::string("variant ") + variant_name(v) +
                " needs ropes installed over a left-biased DFS tree; kernel "
                "point_correlation carries none (non-DFS relayout?)");
  try {
    DeviceConfig cfg;
    run_gpu_sim(k, space, cfg, GpuMode::from(v));
    FAIL() << "run_gpu_sim accepted a ropeless stackless launch";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), "run_gpu_sim: " + reason);
  }
  EXPECT_EQ(make_kernel_handle(k)->variant_ineligible_reason(v), reason);
}

TEST(StaticRopes, InstallCostReported) {
  BodySet b = gen_plummer(2000, 7);
  Octree tree = build_octree(b.pos, b.mass);
  StaticRopes r = install_ropes(tree.topo);
  EXPECT_GE(r.install_ms, 0.0);
  EXPECT_EQ(r.rope.size(), static_cast<std::size_t>(tree.topo.n_nodes));
}

}  // namespace
}  // namespace tt
