// The OpenMP workers of the section-4.4 sampler and of the input
// generators allocate nothing: glibc keeps a block a worker allocates in
// that thread's own arena, where the calling thread's later allocations
// cannot reuse it. Counted by replacing the global operator new of this
// test binary; only allocations by a parallel region's workers (not its
// thread 0, the calling thread), while a test counts, are tallied.
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_algos/pq/point_queries.h"
#include "core/kernel_compose.h"
#include "core/profiler.h"
#include "data/generators.h"
#include "data/projection.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"

namespace {
std::atomic<bool> counting{false};
std::atomic<std::size_t> team_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  if (counting.load(std::memory_order_relaxed) && omp_get_thread_num() != 0)
    team_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// Every replaceable form but the aligned ones, so each allocation this
// binary frees with free() came from malloc() (sanitizers check pairs).
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
// GCC reads a replacement delete's free() of a pointer the replacement new
// returned as a mismatched pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace tt {
namespace {

// Allocations the workers of `body`'s parallel regions make, on a team of
// four.
template <class Body>
std::size_t team_allocations_of(const Body& body) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
  team_allocations = 0;
  counting = true;
  body();
  counting = false;
  omp_set_num_threads(saved);
  return team_allocations.load();
}

TEST(WorkerAllocations, SamplerWorkersAllocateNothing) {
  PointSet pts = gen_covtype_like(3000, 7, 31);
  pts.permute(shuffled_order(pts.size(), 31));
  const KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  const PointCorrelationKernel pc(tree, pts, pc_pick_radius(pts, 20, 31),
                                  space);
  const KdTreeNN nn_tree = build_kdtree_nn(pts);
  const NnKernel nn(nn_tree, pts, space);
  const RopeKnnKernel knn(tree, pts, 8, space);
  const RopeNnKernel rope_nn(tree, pts, space);
  const auto fused = fuse(knn, rope_nn);
  // 48 samples: three runs, so later runs reuse (and outgrow) the buffers
  // the first one sized.
  EXPECT_EQ(team_allocations_of([&] {
              (void)profile_similarity(pc, 48, 5, DeviceConfig{}, &space);
            }),
            0u);
  EXPECT_EQ(team_allocations_of([&] {
              (void)profile_similarity(nn, 48, 5, DeviceConfig{}, &space);
            }),
            0u);
  EXPECT_EQ(team_allocations_of([&] {
              (void)profile_similarity(fused, 48, 5, DeviceConfig{}, &space);
            }),
            0u);
}

TEST(WorkerAllocations, GeneratorWorkersAllocateNothing) {
  EXPECT_EQ(team_allocations_of([] { (void)gen_mnist_like(301, 7, 2); }), 0u);
  EXPECT_EQ(team_allocations_of([] { (void)gen_covtype_like(301, 7, 2); }),
            0u);
  std::vector<float> data(301 * 20, 0.5f);
  EXPECT_EQ(team_allocations_of(
                [&] { (void)random_projection(data, 301, 20, 7, 3); }),
            0u);
}

}  // namespace
}  // namespace tt
