// Registration of the benchmark kernels with core's KernelFactory
// (core/kernel_factory.h). The registry mechanics live in core; the
// builders -- which need the data generators, tree builders and kernel
// types -- live here, above tt_data. Call register_bench_kernels() once
// before KernelFactory::make; repeated calls are no-ops.
//
// Registered names:
//   bh, pc, knn, nn, vp         -- the five Table-1 kernels
//   rope_knn, rope_nn           -- unguided rope-walk point queries
//   fused_knn_nn                -- FusedKernel(rope_knn, rope_nn), one tree
//   fused_bh_step               -- FusedKernel of two BH timesteps over a
//                                  refit (not rebuilt) octree
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench_algos/knn/knn.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/vp/vantage_point.h"
#include "core/kernel_factory.h"
#include "data/generators.h"
#include "spatial/kdtree.h"
#include "spatial/point_set.h"
#include "spatial/vptree.h"

namespace tt {

void register_bench_kernels();

// The layout permutation KernelRequest::order names: morton_order /
// tree_order(leaf_size) / shuffled_order(seed ^ 0x5bd1e995). (Previously
// kernel_builder.h's helper; the builders and bench/selection_sweep's
// Morton gating both use it.)
[[nodiscard]] std::vector<std::uint32_t> order_permutation(
    const PointSet& pts, PointOrder order, int leaf_size, std::uint64_t seed);

// The builders' inputs: req.input generated at req.n / req.dim / req.seed
// ("" = the canonical Table-1 input: covtype, plummer) and laid out in
// req.order. Bodies carry their masses and velocities through the
// permutation. Unknown inputs throw, listing the valid ones.
[[nodiscard]] PointSet make_points(const KernelRequest& req);
[[nodiscard]] BodySet make_bodies(const KernelRequest& req);

// The four Table-1 point kernels, typed: make_points(req), the kernel's
// tree and the kernel over `space`, parked together. The kernel points
// into the bundle, so its members are filled in place and never moved.
// run_bench runs the typed kernel; the registered "pc" / "knn" / "nn" /
// "vp" builders wrap the same bundle in a KernelHandle.
template <class Tree, class Kernel>
struct PointKernelBundle {
  PointSet pts;
  Tree tree;
  std::optional<Kernel> k;
};
using PcBundle = PointKernelBundle<KdTree, PointCorrelationKernel>;
using KnnBundle = PointKernelBundle<KdTree, KnnKernel>;
using NnBundle = PointKernelBundle<KdTreeNN, NnKernel>;
using VpBundle = PointKernelBundle<VpTree, VpKernel>;

// PC's radius is pc_pick_radius(pts, req.pc_target_neighbors, req.seed);
// the VP tree is built with seed req.seed ^ 0x7b1fa2.
[[nodiscard]] std::shared_ptr<PcBundle> build_pc_bundle(
    const KernelRequest& req, GpuAddressSpace& space);
[[nodiscard]] std::shared_ptr<KnnBundle> build_knn_bundle(
    const KernelRequest& req, GpuAddressSpace& space);
[[nodiscard]] std::shared_ptr<NnBundle> build_nn_bundle(
    const KernelRequest& req, GpuAddressSpace& space);
[[nodiscard]] std::shared_ptr<VpBundle> build_vp_bundle(
    const KernelRequest& req, GpuAddressSpace& space);

}  // namespace tt
