#include "bench_algos/register_kernels.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench_algos/bh/barnes_hut.h"
#include "bench_algos/knn/knn.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/pq/point_queries.h"
#include "bench_algos/vp/vantage_point.h"
#include "core/cpu_executors.h"
#include "core/kernel_compose.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "spatial/octree.h"
#include "spatial/vptree.h"

namespace tt {

std::vector<std::uint32_t> order_permutation(const PointSet& pts,
                                             PointOrder order, int leaf_size,
                                             std::uint64_t seed) {
  switch (order) {
    case PointOrder::kMorton: return morton_order(pts);
    case PointOrder::kTree: return tree_order(pts, leaf_size);
    case PointOrder::kShuffled:
      return shuffled_order(pts.size(), seed ^ 0x5bd1e995);
  }
  throw std::logic_error("order_permutation: bad order");
}

// Unknown input spellings throw listing the valid ones, matching the
// factory's own unknown-name convention.
PointSet make_points(const KernelRequest& req) {
  const std::string in = req.input.empty() ? "covtype" : req.input;
  PointSet pts = [&] {
    if (in == "covtype") return gen_covtype_like(req.n, req.dim, req.seed);
    if (in == "mnist") return gen_mnist_like(req.n, req.dim, req.seed);
    if (in == "uniform") return gen_uniform(req.n, req.dim, req.seed);
    if (in == "geocity") return gen_geocity_like(req.n, req.seed);
    throw std::invalid_argument(
        "make_points: unknown input '" + in +
        "' for a point benchmark (valid: covtype, geocity, mnist, uniform)");
  }();
  pts.permute(order_permutation(pts, req.order, req.leaf_size, req.seed));
  return pts;
}

BodySet make_bodies(const KernelRequest& req) {
  const std::string in = req.input.empty() ? "plummer" : req.input;
  BodySet bodies = [&] {
    if (in == "plummer") return gen_plummer(req.n, req.seed);
    if (in == "random_bodies") return gen_random_bodies(req.n, req.seed);
    throw std::invalid_argument(
        "make_bodies: unknown input '" + in +
        "' for a body benchmark (valid: plummer, random_bodies)");
  }();
  auto perm = order_permutation(bodies.pos, req.order, req.leaf_size, req.seed);
  bodies.pos.permute(perm);
  const std::size_t n = bodies.pos.size();
  std::vector<float> m(n), v(3 * n);
  for (std::size_t j = 0; j < n; ++j) {
    m[j] = bodies.mass[perm[j]];
    for (int d = 0; d < 3; ++d)
      v[static_cast<std::size_t>(d) * n + j] =
          bodies.vel[static_cast<std::size_t>(d) * n + perm[j]];
  }
  bodies.mass = std::move(m);
  bodies.vel = std::move(v);
  return bodies;
}

std::shared_ptr<PcBundle> build_pc_bundle(const KernelRequest& req,
                                          GpuAddressSpace& space) {
  auto b = std::make_shared<PcBundle>();
  b->pts = make_points(req);
  b->tree = build_kdtree(b->pts, req.leaf_size);
  const float r = pc_pick_radius(b->pts, req.pc_target_neighbors, req.seed);
  b->k.emplace(b->tree, b->pts, r, space);
  return b;
}

std::shared_ptr<KnnBundle> build_knn_bundle(const KernelRequest& req,
                                            GpuAddressSpace& space) {
  auto b = std::make_shared<KnnBundle>();
  b->pts = make_points(req);
  b->tree = build_kdtree(b->pts, req.leaf_size);
  b->k.emplace(b->tree, b->pts, req.k, space);
  return b;
}

std::shared_ptr<NnBundle> build_nn_bundle(const KernelRequest& req,
                                          GpuAddressSpace& space) {
  auto b = std::make_shared<NnBundle>();
  b->pts = make_points(req);
  b->tree = build_kdtree_nn(b->pts);
  b->k.emplace(b->tree, b->pts, space);
  return b;
}

std::shared_ptr<VpBundle> build_vp_bundle(const KernelRequest& req,
                                          GpuAddressSpace& space) {
  auto b = std::make_shared<VpBundle>();
  b->pts = make_points(req);
  b->tree = build_vptree(b->pts, req.seed ^ 0x7b1fa2);
  b->k.emplace(b->tree, b->pts, space);
  return b;
}

namespace {

// Each builder parks its data + tree + kernel in a bundle behind the
// handle's keep-alive, so the handle is self-contained. Kernels hold
// pointers into the bundle; members are filled in place (std::optional
// emplacement) and never moved afterwards.

struct BhBundle {
  BodySet bodies;
  Octree tree;
  std::optional<BarnesHutKernel> k;
};

std::shared_ptr<KernelHandle> build_bh(const KernelRequest& req,
                                       GpuAddressSpace& space) {
  auto b = std::make_shared<BhBundle>();
  b->bodies = make_bodies(req);
  b->tree = build_octree(b->bodies.pos, b->bodies.mass);
  b->k.emplace(b->tree, b->bodies.pos, req.bh_theta, req.bh_eps2, space);
  return make_kernel_handle(*b->k, b);
}

// A typed bundle builder as a factory builder: the handle's keep-alive is
// the bundle itself.
template <auto BuildBundle>
std::shared_ptr<KernelHandle> handle_of(const KernelRequest& req,
                                        GpuAddressSpace& space) {
  auto b = BuildBundle(req, space);
  return make_kernel_handle(*b->k, b);
}

struct PqBundle {
  PointSet pts;
  KdTree tree;
  std::optional<RopeKnnKernel> knn;
  std::optional<RopeNnKernel> nn;
  std::optional<FusedKernel<RopeKnnKernel, RopeNnKernel>> fused;
};

std::shared_ptr<PqBundle> build_pq_bundle(const KernelRequest& req,
                                          GpuAddressSpace& space,
                                          bool want_knn, bool want_nn) {
  auto b = std::make_shared<PqBundle>();
  b->pts = make_points(req);
  b->tree = build_kdtree(b->pts, req.leaf_size);
  if (want_knn) b->knn.emplace(b->tree, b->pts, req.k, space);
  if (want_nn) b->nn.emplace(b->tree, b->pts, space);
  return b;
}

std::shared_ptr<KernelHandle> build_rope_knn(const KernelRequest& req,
                                             GpuAddressSpace& space) {
  auto b = build_pq_bundle(req, space, /*want_knn=*/true, /*want_nn=*/false);
  return make_kernel_handle(*b->knn, b);
}

std::shared_ptr<KernelHandle> build_rope_nn(const KernelRequest& req,
                                            GpuAddressSpace& space) {
  auto b = build_pq_bundle(req, space, /*want_knn=*/false, /*want_nn=*/true);
  return make_kernel_handle(*b->nn, b);
}

std::shared_ptr<KernelHandle> build_fused_knn_nn(const KernelRequest& req,
                                                 GpuAddressSpace& space) {
  auto b = build_pq_bundle(req, space, /*want_knn=*/true, /*want_nn=*/true);
  b->fused.emplace(*b->knn, *b->nn);
  return make_kernel_handle(*b->fused, b);
}

// Two consecutive BH timesteps' force passes over a REFIT octree, fused
// into one walk. Step-0 forces come from the verified CPU executor
// (identical to any GPU variant's results), bodies advance one leapfrog
// step, and the t1 tree is a refit *copy* of the t0 tree -- same
// topology, node ids and ropes -- so the twin kernel shares the t0
// child-index records and the FusedKernel rope-identity check passes.
struct FusedBhBundle {
  BodySet bodies;   // t0 positions (kernel A reads these)
  PointSet pos1;    // t1 positions (kernel B reads these)
  Octree tree0;
  Octree tree1;
  std::optional<BarnesHutKernel> a;
  std::optional<BarnesHutKernel> b;
  std::optional<FusedKernel<BarnesHutKernel, BarnesHutKernel>> fused;
};

std::shared_ptr<KernelHandle> build_fused_bh_step(const KernelRequest& req,
                                                  GpuAddressSpace& space) {
  auto bun = std::make_shared<FusedBhBundle>();
  bun->bodies = make_bodies(req);
  bun->tree0 = build_octree(bun->bodies.pos, bun->bodies.mass);
  bun->a.emplace(bun->tree0, bun->bodies.pos, req.bh_theta, req.bh_eps2,
                 space);

  auto forces = run_cpu(*bun->a, CpuVariant::kRecursive, 1).results;
  bun->pos1 = bun->bodies.pos;
  std::vector<float> vel = bun->bodies.vel;
  bh_integrate(bun->pos1, vel, forces, req.bh_dt);

  bun->tree1 = bun->tree0;  // refit keeps topology/ids/ropes
  refit_octree(bun->tree1, bun->pos1, bun->bodies.mass);
  bun->b.emplace(bun->tree1, bun->pos1, req.bh_theta, req.bh_eps2, space,
                 *bun->a);
  bun->fused.emplace(*bun->a, *bun->b);
  return make_kernel_handle(*bun->fused, bun);
}

}  // namespace

void register_bench_kernels() {
  static const bool once = [] {
    KernelFactory& f = KernelFactory::instance();
    f.register_builder("bh", build_bh);
    f.register_builder("pc", handle_of<build_pc_bundle>);
    f.register_builder("knn", handle_of<build_knn_bundle>);
    f.register_builder("nn", handle_of<build_nn_bundle>);
    f.register_builder("vp", handle_of<build_vp_bundle>);
    f.register_builder("rope_knn", build_rope_knn);
    f.register_builder("rope_nn", build_rope_nn);
    f.register_builder("fused_knn_nn", build_fused_knn_nn);
    f.register_builder("fused_bh_step", build_fused_bh_step);
    return true;
  }();
  (void)once;
}

}  // namespace tt
