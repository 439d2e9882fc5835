// Data-mining scenario (the paper's kNN benchmark): build a kd-tree over a
// projected high-dimensional dataset and find every point's k nearest
// neighbors -- a *guided* traversal with two call sets, so lockstep needs
// the section-4.3 equivalence annotation and the warp majority vote.
//
// The example contrasts the guided non-lockstep run with the voted
// lockstep run and shows that both return the same neighbors.
//
// Usage: ./examples/knn_search [--points=N] [--k=K] [--no-sorted]
#include <cmath>
#include <cstdio>

#include "bench_algos/knn/knn.h"
#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "core/ir/callset_analysis.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace tt;
  Cli cli("knn_search: guided k-nearest-neighbor with call-set voting");
  cli.add_int("points", 8192, "dataset size");
  cli.add_int("k", 8, "neighbors per query");
  cli.add_flag("sorted", true, "spatially sort the queries first");
  if (!cli.parse(argc, argv)) return 0;

  // Mnist-like manifold data, projected 784-d -> 7-d.
  const auto n = static_cast<std::size_t>(cli.get_int("points"));
  PointSet pts = gen_mnist_like(n, 7, 77);
  pts.permute(cli.get_flag("sorted") ? tree_order(pts, 8)
                                     : shuffled_order(n, 77));
  KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  KnnKernel kernel(tree, pts, static_cast<int>(cli.get_int("k")), space);

  // Static analysis: guided, two call sets; lockstep becomes legal only
  // because KnnKernel carries the kCallSetsEquivalent annotation.
  ir::AnalysisReport report = ir::analyze(knn_ir());
  std::printf("knn: %zu call sets -> %s; lockstep legal via annotation: %s\n",
              report.call_sets.size(),
              report.cls == ir::TraversalClass::kGuided ? "guided" : "unguided",
              KnnKernel::kCallSetsEquivalent ? "yes" : "no");

  DeviceConfig cfg;
  auto gn = run_gpu_sim(kernel, space, cfg,
                        GpuMode::from(Variant::kAutoNolockstep));
  auto gl = run_gpu_sim(kernel, space, cfg,
                        GpuMode::from(Variant::kAutoLockstep));
  std::printf("non-lockstep: %.3f ms, %.0f nodes/point\n", gn.time.total_ms,
              gn.avg_nodes());
  std::printf("lockstep+vote: %.3f ms, %.0f nodes/warp, %llu votes\n",
              gl.time.total_ms, gl.avg_nodes(),
              static_cast<unsigned long long>(gl.stats.votes));

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    float a = gn.results[i].kth_d2, b = gl.results[i].kth_d2;
    if (std::abs(a - b) > 1e-4f * std::max(1.f, std::max(a, b))) ++mismatches;
  }
  std::printf("result mismatches between variants: %zu\n", mismatches);

  // A couple of example answers.
  for (std::size_t i = 0; i < 3 && i < n; ++i)
    std::printf("query %zu: kth-neighbor distance %.4f\n", i,
                std::sqrt(gn.results[i].kth_d2));
  return mismatches == 0 ? 0 : 1;
}
