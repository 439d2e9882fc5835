// Density profiling with point correlation (the paper's data-mining
// scenario): sweep the correlation radius over a clustered 2-d "city"
// dataset and report how the neighbor counts -- and the traversal cost --
// grow with the radius. Demonstrates the radius/truncation trade-off the
// paper discusses in section 6.3 (smaller radius => earlier truncation =>
// better lockstep load balance).
//
// Usage: ./examples/range_profile [--points=N] [--trace]
//
// Also demonstrates the observability layer: --trace runs the smallest
// radius with a TraceSink attached and prints the first warp's event
// stream plus a digest of its KernelStats counters.
#include <cstdio>

#include "bench_algos/pc/point_correlation.h"
#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "obs/trace.h"
#include "spatial/kdtree.h"
#include "util/cli.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace tt;
  Cli cli("range_profile: correlation-radius sweep over clustered 2-d data");
  cli.add_int("points", 8192, "dataset size");
  cli.add_flag("trace", false,
               "print warp 0's trace events and a KernelStats digest for "
               "the smallest radius");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = static_cast<std::size_t>(cli.get_int("points"));
  PointSet pts = gen_geocity_like(n, 11);
  pts.permute(morton_order(pts));
  KdTree tree = build_kdtree(pts, 8);
  float base = pc_pick_radius(pts, 8, 11);

  std::printf("%10s %14s %14s %12s %14s\n", "radius", "mean neighbors",
              "max neighbors", "gpu ms (L)", "nodes/warp");
  bool first = true;
  for (float scale : {0.5f, 1.0f, 2.0f, 4.0f, 8.0f}) {
    float r = base * scale;
    GpuAddressSpace space;
    PointCorrelationKernel kernel(tree, pts, r, space);
    obs::TraceSink sink(256);
    obs::TraceSink* trace =
        first && cli.get_flag("trace") ? &sink : nullptr;
    auto gpu = run_gpu_sim(kernel, space, DeviceConfig{},
                           GpuMode::from(Variant::kAutoLockstep), trace);
    RunningStats stats;
    std::uint32_t max_c = 0;
    for (auto c : gpu.results) {
      stats.add(c);
      max_c = std::max(max_c, c);
    }
    std::printf("%10.4f %14.1f %14u %12.3f %14.0f\n", r, stats.mean(), max_c,
                gpu.time.total_ms, gpu.avg_nodes());
    if (trace) {
      std::printf("\nwarp 0 trace (first 20 of %zu events, %llu dropped):\n",
                  trace->events_for(0).size(),
                  static_cast<unsigned long long>(trace->dropped_for(0)));
      std::size_t shown = 0;
      for (const obs::TraceEvent& e : trace->events_for(0)) {
        if (shown++ == 20) break;
        std::printf("  seq=%-5u %-8s node=%-6u mask=%08x depth=%u\n", e.seq,
                    obs::trace_event_name(e.kind), e.node, e.mask, e.depth);
      }
      std::printf("stats: lane_visits=%llu warp_pops=%llu votes=%llu\n\n",
                  static_cast<unsigned long long>(gpu.stats.lane_visits),
                  static_cast<unsigned long long>(gpu.stats.warp_pops),
                  static_cast<unsigned long long>(gpu.stats.votes));
    }
    first = false;
  }
  return 0;
}
