// google-benchmark microbenchmarks of the substrate hot paths: the
// coalescing model, the L2 simulator, warp-memory commit, tree builds,
// the CPU-side traversal executors and a replayed serving wave. These
// guard the *simulator's own* performance (host seconds per simulated
// event), which bounds how large an input the experiment binaries can
// afford.
#include <benchmark/benchmark.h>

#include "bench_algos/pc/point_correlation.h"
#include "core/cpu_executors.h"
#include "core/serving.h"
#include "data/generators.h"
#include "simt/coalescing.h"
#include "simt/l2cache.h"
#include "simt/warp_memory.h"
#include "spatial/kdtree.h"
#include "spatial/octree.h"
#include "spatial/vptree.h"
#include "util/rng.h"

namespace tt {
namespace {

void BM_CoalescingCoalesced(benchmark::State& state) {
  std::vector<LaneAccess> acc;
  for (int l = 0; l < 32; ++l)
    acc.push_back({static_cast<std::uint64_t>(l) * 4, 4});
  std::vector<std::uint64_t> segs;
  for (auto _ : state)
    benchmark::DoNotOptimize(coalesce(acc, 128, segs));
}
BENCHMARK(BM_CoalescingCoalesced);

void BM_CoalescingScattered(benchmark::State& state) {
  std::vector<LaneAccess> acc;
  Pcg32 rng(1);
  for (int l = 0; l < 32; ++l) acc.push_back({rng.next_u64() % (1 << 26), 20});
  std::vector<std::uint64_t> segs;
  for (auto _ : state)
    benchmark::DoNotOptimize(coalesce(acc, 128, segs));
}
BENCHMARK(BM_CoalescingScattered);

void BM_L2Access(benchmark::State& state) {
  L2Cache l2(16 * 1024, 128, 16);
  Pcg32 rng(2);
  std::uint64_t sink = 0;
  for (auto _ : state) sink += l2.access(rng.next_u64() % (1 << 22));
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_L2Access);

// WarpMemory::commit on the shapes a full-grid launch commits: a
// field-annotated 32-byte node record (2 MiB array) with the warp's L2
// slice on, plus a registered stack arena. Each iteration records one
// commit's accesses and commits them.
struct CommitFixture {
  static constexpr std::uint32_t kElems = 1u << 16;
  GpuAddressSpace space;
  DeviceConfig cfg;
  KernelStats stats;
  BufferId nodes = space.register_buffer(
      "nodes", 32, kElems, {{"lo", 0, 12}, {"hi", 12, 12}, {"link", 24, 8}});
  BufferId arena = space.register_buffer("rope_stack", 1, 64 * 32 * 8);
  L2Cache l2{cfg.l2_bytes / static_cast<std::size_t>(cfg.max_resident_warps()),
             cfg.l2_line_bytes, cfg.l2_assoc};
  WarpMemory mem{space, cfg, &l2, stats};
  Pcg32 rng{3};
  [[nodiscard]] std::uint32_t random_elem() { return rng.next_below(kElems); }
};

// One lane, one element: the most common commit in the grids.
void BM_CommitSingleAccess(benchmark::State& state) {
  CommitFixture f;
  for (auto _ : state) {
    f.mem.lane_load(0, f.nodes, f.random_elem());
    f.mem.commit();
  }
}
BENCHMARK(BM_CommitSingleAccess);

// All 32 lanes read the same node record (lockstep visit).
void BM_CommitBroadcast(benchmark::State& state) {
  CommitFixture f;
  for (auto _ : state) {
    const std::uint32_t e = f.random_elem();
    for (int l = 0; l < 32; ++l) f.mem.lane_load(l, f.nodes, e);
    f.mem.commit();
  }
}
BENCHMARK(BM_CommitBroadcast);

// 32 lanes read 32 consecutive records: 8 segments, addresses ascending.
void BM_CommitCoalesced(benchmark::State& state) {
  CommitFixture f;
  std::uint32_t base = 0;
  for (auto _ : state) {
    for (int l = 0; l < 32; ++l)
      f.mem.lane_load(l, f.nodes, (base + static_cast<std::uint32_t>(l)) %
                                      CommitFixture::kElems);
    base = (base + 32) % CommitFixture::kElems;
    f.mem.commit();
  }
}
BENCHMARK(BM_CommitCoalesced);

// Two random records per lane: two load instructions (the second a
// replay), one segment per lane each.
void BM_CommitScattered2Rank(benchmark::State& state) {
  CommitFixture f;
  for (auto _ : state) {
    for (int l = 0; l < 32; ++l) {
      f.mem.lane_load(l, f.nodes, f.random_elem());
      f.mem.lane_load(l, f.nodes, f.random_elem());
    }
    f.mem.commit();
  }
}
BENCHMARK(BM_CommitScattered2Rank);

// 32 lanes push an 8-byte entry at the same level of an interleaved rope
// stack in the registered arena.
void BM_CommitStackPush(benchmark::State& state) {
  CommitFixture f;
  const std::uint64_t base = f.space.addr(f.arena, 0);
  std::uint64_t level = 0;
  for (auto _ : state) {
    for (int l = 0; l < 32; ++l)
      f.mem.lane_stack_traffic(
          l, base + (level * 32 + static_cast<std::uint64_t>(l)) * 8, 8);
    level = (level + 1) % 64;
    f.mem.commit();
  }
}
BENCHMARK(BM_CommitStackPush);

void BM_BuildKdTree(benchmark::State& state) {
  PointSet pts = gen_covtype_like(static_cast<std::size_t>(state.range(0)), 7, 4);
  for (auto _ : state) {
    KdTree t = build_kdtree(pts, 8);
    benchmark::DoNotOptimize(t.topo.n_nodes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildKdTree)->Arg(1024)->Arg(8192);

void BM_BuildOctree(benchmark::State& state) {
  BodySet b = gen_plummer(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    Octree t = build_octree(b.pos, b.mass);
    benchmark::DoNotOptimize(t.topo.n_nodes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildOctree)->Arg(1024)->Arg(8192);

void BM_BuildVpTree(benchmark::State& state) {
  PointSet pts = gen_uniform(static_cast<std::size_t>(state.range(0)), 7, 6);
  for (auto _ : state) {
    VpTree t = build_vptree(pts, 6);
    benchmark::DoNotOptimize(t.topo.n_nodes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildVpTree)->Arg(1024)->Arg(8192);

void BM_CpuTraversal(benchmark::State& state) {
  // Real CPU traversal throughput (visits/second), recursive vs autoropes.
  static PointSet pts = gen_covtype_like(4096, 7, 7);
  static KdTree tree = build_kdtree(pts, 8);
  GpuAddressSpace space;
  float r = pc_pick_radius(pts, 32, 7);
  PointCorrelationKernel k(tree, pts, r, space);
  auto variant =
      state.range(0) == 0 ? CpuVariant::kRecursive : CpuVariant::kAutoropes;
  std::uint64_t visits = 0;
  for (auto _ : state) {
    auto run = run_cpu(k, variant, 1);
    visits += run.total_visits;
    benchmark::DoNotOptimize(run.results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(visits));
  state.SetLabel(state.range(0) == 0 ? "recursive" : "autoropes");
}
BENCHMARK(BM_CpuTraversal)->Arg(0)->Arg(1);

// The common serving path: two devices, one decided (kernel, mode) pair
// and arrivals 1 ms apart, far wider than its service time, so every
// submit fires the previous query's wave -- one replayed query on an idle
// device -- and logs its drain. The pair's cold query executes (and
// decides it) when the second arrival fires it.
struct LightLoadSession {
  static const PointSet& points() {
    static const PointSet pts = gen_covtype_like(512, 7, 8);
    return pts;
  }
  static const KdTree& tree() {
    static const KdTree t = build_kdtree(points(), 8);
    return t;
  }
  static ServingConfig config() {
    ServingConfig cfg;
    cfg.devices = 2;
    return cfg;
  }

  GpuAddressSpace space;
  PointCorrelationKernel kernel{tree(), points(),
                                pc_pick_radius(points(), 16, 8), space};
  QuerySet q;
  ServingSession session{config()};
  double arrival_ms = 0;

  LightLoadSession() {
    q.spec.kernel = make_kernel_handle(kernel);
    q.spec.space = &space;
    q.spec.mode = GpuMode::from(Variant::kAutoNolockstep);
    q.upload_bytes = 4096;
    q.download_bytes = 1024;
    for (int i = 0; i < 2; ++i) submit();
  }
  bool submit() {
    const bool admitted = session.submit(q, arrival_ms);
    arrival_ms += 1.0;
    return admitted;
  }
};

// ServingSession::submit at light load. Time per iteration is host ns per
// query served. The iteration count is fixed because the session keeps
// per-query telemetry for its whole life.
void BM_ServingReplayedWave(benchmark::State& state) {
  LightLoadSession s;
  for (auto _ : state) benchmark::DoNotOptimize(s.submit());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServingReplayedWave)->Iterations(1 << 18);

// ServingSession::report over a light-load session of 2^20 queries served
// (set up outside the timed loop): the latency and queue-delay summaries
// and the drain-log view. Time per iteration is one report.
void BM_ServingReport(benchmark::State& state) {
  LightLoadSession s;
  while (s.session.latencies_ms().size() < (std::size_t{1} << 20)) s.submit();
  for (auto _ : state) {
    const ServingReport r = s.session.report();
    benchmark::DoNotOptimize(r.latency.p99);
    benchmark::DoNotOptimize(r.queue_delay.p99);
  }
}
BENCHMARK(BM_ServingReport)->Iterations(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tt
