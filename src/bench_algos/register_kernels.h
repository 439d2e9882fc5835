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
#include <vector>

#include "core/kernel_factory.h"
#include "data/generators.h"
#include "spatial/point_set.h"

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

}  // namespace tt
