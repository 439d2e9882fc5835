// Quickstart: the whole pipeline on one page.
//
// 1. Describe the traversal's structure (IR) and let the static call-set
//    analysis classify it (section 3.2.1).
// 2. Build the tree and the traversal kernel.
// 3. Run it on the simulated GPU as Variant::kAutoSelect: the launch
//    samples a few of its warps (section 4.4), prices the lockstep and
//    non-lockstep autoropes compositions from them and runs the cheaper.
// 4. Cross-check against the plain recursive CPU run.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "bench_algos/pc/point_correlation.h"
#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "core/ir/callset_analysis.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "spatial/kdtree.h"

int main() {
  using namespace tt;

  // --- 1. static analysis of the traversal structure -------------------
  ir::AnalysisReport report = ir::analyze(pc_ir());
  std::printf("point-correlation: %zu call set(s), %s, %s\n",
              report.call_sets.size(),
              report.pseudo_tail_recursive ? "pseudo-tail-recursive"
                                           : "needs restructuring",
              report.cls == ir::TraversalClass::kUnguided ? "unguided"
                                                          : "guided");

  // --- 2. data, tree, kernel ------------------------------------------
  PointSet pts = gen_covtype_like(8192, 7, /*seed=*/1);
  pts.permute(tree_order(pts, 8));  // spatial sort (section 4.4)
  KdTree tree = build_kdtree(pts, /*leaf_size=*/8);
  float radius = pc_pick_radius(pts, /*target neighbors=*/32, 1);
  GpuAddressSpace space;
  PointCorrelationKernel kernel(tree, pts, radius, space);

  // --- 3. run on the simulated GPU, letting the launch pick the variant --
  GpuRun<PointCorrelationKernel> gpu = run_gpu_sim(
      kernel, space, DeviceConfig{}, GpuMode::from(Variant::kAutoSelect));
  const SelectionInfo& sel = *gpu.selection;
  std::printf("predicted lockstep %.3f ms vs non-lockstep %.3f ms -> %s\n",
              sel.predicted_lockstep_ms, sel.predicted_nolockstep_ms,
              variant_name(sel.chosen));
  std::printf("GPU(sim): %.3f ms modelled, %.0f nodes/point avg, "
              "%llu DRAM transactions\n",
              gpu.time.total_ms, gpu.avg_nodes(),
              static_cast<unsigned long long>(gpu.stats.dram_transactions));

  // --- 4. validate against the recursive CPU implementation ------------
  CpuRun<PointCorrelationKernel> cpu =
      run_cpu(kernel, CpuVariant::kRecursive, /*threads=*/2);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (cpu.results[i] != gpu.results[i]) ++mismatches;
  std::printf("CPU(2T): %.3f ms measured; %zu result mismatches\n",
              cpu.wall_ms, mismatches);
  std::printf("point 0 has %u neighbors within r=%.3f\n", cpu.results[0],
              radius);
  return mismatches == 0 ? 0 : 1;
}
