// Fused-vs-sequential sweep of the two shipped kernel compositions
// (core/kernel_compose.h):
//
//   fused(rope_knn+rope_nn)     -- k-NN and NN point queries over one
//                                  kd-tree, answered in a single rope walk
//   fused(barnes_hut+barnes_hut) -- two consecutive BH timesteps' force
//                                  passes over a refit (not rebuilt) octree
//
// For every eligible variant the fused kernel runs next to its sequential
// baseline -- the same constituents back to back under the same variant,
// counters summed -- and the sweep reports the merged-truncation visit
// savings, the visit / mem_stall cycle deltas, the shared-load elision
// count, and the byte-identity verdict (fused Result{a,b} must reproduce
// the solo results exactly; a mismatch fails the run). auto_select is
// skipped: it dispatches to one of the compositions already measured and
// would only add its sampling charge to the comparison. Ineligible
// variants (BH's fanout-8 octree cannot index_walk) appear as failed rows
// carrying the canonical kernel_variant_ineligible_reason string.
//
// --json emits the "fusion" block; tools/json_validate re-derives
// the fused-visits <= summed-constituent-visits invariant from it, and
// scripts/bench_snapshot.sh distills the run into BENCH_fusion.json.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_algos/bh/barnes_hut.h"
#include "bench_algos/pq/point_queries.h"
#include "bench_common.h"
#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "core/kernel_compose.h"
#include "data/generators.h"
#include "spatial/kdtree.h"
#include "spatial/octree.h"
#include "util/csv.h"

using namespace tt;

namespace {

TimeBreakdown sum_time(const TimeBreakdown& x, const TimeBreakdown& y) {
  TimeBreakdown t;
  t.compute_ms = x.compute_ms + y.compute_ms;
  t.memory_ms = x.memory_ms + y.memory_ms;
  t.select_ms = x.select_ms + y.select_ms;
  t.total_ms = x.total_ms + y.total_ms;
  t.memory_bound = t.memory_ms > t.compute_ms;
  t.imbalance = std::max(x.imbalance, y.imbalance);
  return t;
}

// Fused Result{a,b} vs the solo results, byte-for-byte (the Result
// structs are padding-free and the fused finish memsets its slots).
template <class F, class RA, class RB>
bool byte_identical(const std::vector<F>& fused, const std::vector<RA>& a,
                    const std::vector<RB>& b) {
  if (fused.size() != a.size() || fused.size() != b.size()) return false;
  for (std::size_t i = 0; i < fused.size(); ++i) {
    if (std::memcmp(&fused[i].a, &a[i], sizeof(RA)) != 0) return false;
    if (std::memcmp(&fused[i].b, &b[i], sizeof(RB)) != 0) return false;
  }
  return true;
}

template <class A, class B>
obs::FusionPairReport measure_pair(const A& a, const B& b,
                                   const FusedKernel<A, B>& fused,
                                   GpuAddressSpace& space, const Cli& cli) {
  obs::FusionPairReport pr;
  pr.fused_name = FusedKernel<A, B>::kName;
  pr.first_name = A::kName;
  pr.second_name = B::kName;
  pr.n_points = fused.num_points();
  const DeviceConfig dev;
  for (Variant v : kAllVariants) {
    if (v == Variant::kAutoSelect) continue;
    if (!benchx::variant_enabled(cli, v)) continue;
    obs::FusionVariantRow row;
    row.variant = v;
    const std::string why = kernel_variant_ineligible_reason(fused, v);
    if (!why.empty()) {
      row.ok = false;
      row.error = why;
      pr.variants.push_back(row);
      continue;
    }
    const GpuMode mode = GpuMode::from(v);
    auto ga = run_gpu_sim(a, space, dev, mode);
    auto gb = run_gpu_sim(b, space, dev, mode);
    auto gf = run_gpu_sim(fused, space, dev, mode);
    row.fused = gf.stats;
    row.fused_time = gf.time;
    row.sequential = ga.stats;
    row.sequential.merge(gb.stats);
    row.sequential_time = sum_time(ga.time, gb.time);
    row.byte_identical = byte_identical(gf.results, ga.results, gb.results);
    pr.variants.push_back(row);
  }
  return pr;
}

void add_rows(Table& table, const obs::FusionPairReport& pr) {
  for (const obs::FusionVariantRow& r : pr.variants) {
    if (!r.ok) {
      table.add_row({pr.fused_name, variant_name(r.variant), "-", "-", "-",
                     "-", "-", "-", "-", "-", "ineligible"});
      continue;
    }
    const double seq_visits = static_cast<double>(r.sequential.lane_visits);
    const double saved_pct =
        seq_visits > 0
            ? 100.0 *
                  (seq_visits - static_cast<double>(r.fused.lane_visits)) /
                  seq_visits
            : 0;
    table.add_row({pr.fused_name, variant_name(r.variant),
                   std::to_string(r.fused.lane_visits),
                   std::to_string(r.sequential.lane_visits),
                   fmt_fixed(saved_pct, 1),
                   fmt_fixed(r.visit_cycles_saved(), 0),
                   fmt_fixed(r.mem_stall_cycles_saved(), 0),
                   std::to_string(r.fused.shared_loads_elided),
                   fmt_fixed(r.fused_time.total_ms, 3),
                   fmt_fixed(r.sequential_time.total_ms, 3),
                   r.byte_identical ? "yes" : "MISMATCH"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "fusion: fused traversal kernels (core/kernel_compose.h) against "
      "their sequential baselines -- per pair and per variant, the "
      "merged-truncation visit savings, visit / mem_stall cycle deltas, "
      "shared-load elision and the byte-identity verdict");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "fusion", [&]() -> int {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.get_int("seed"));
    const std::size_t n_points =
        static_cast<std::size_t>(cli.get_int("points"));
    const std::size_t n_bodies =
        static_cast<std::size_t>(cli.get_int("bodies"));
    const int k = static_cast<int>(cli.get_int("k"));
    const float theta = static_cast<float>(cli.get_double("theta"));

    obs::FusionRunSummary summary;

    // Pair 1: k-NN + NN over one kd-tree, one rope walk.
    {
      PointSet pts = gen_covtype_like(n_points, 7, seed);
      KdTree tree = build_kdtree(pts, 8);
      GpuAddressSpace space;
      RopeKnnKernel knn(tree, pts, k, space);
      RopeNnKernel nn(tree, pts, space);
      auto fused = fuse(knn, nn);
      summary.pairs.push_back(measure_pair(knn, nn, fused, space, cli));
      std::cerr << "# measured " << summary.pairs.back().fused_name << "\n";
    }

    // Pair 2: consecutive BH timesteps' force passes; the second step's
    // octree is refit from the first (same partition, so the twin kernel
    // shares the child-index records and the fused walk elides the
    // duplicate loads).
    {
      BodySet bodies = gen_plummer(n_bodies, seed);
      Octree tree0 = build_octree(bodies.pos, bodies.mass);
      GpuAddressSpace space;
      BarnesHutKernel a(tree0, bodies.pos, theta, 1e-4f, space);
      auto forces = run_cpu(a, CpuVariant::kRecursive, 1).results;
      PointSet pos1 = bodies.pos;
      std::vector<float> vel = bodies.vel;
      bh_integrate(pos1, vel, forces, 0.0125f);
      Octree tree1 = tree0;
      refit_octree(tree1, pos1, bodies.mass);
      BarnesHutKernel b(tree1, pos1, theta, 1e-4f, space, a);
      auto fused = fuse(a, b);
      summary.pairs.push_back(measure_pair(a, b, fused, space, cli));
      std::cerr << "# measured " << summary.pairs.back().fused_name << "\n";
    }

    bool all_identical = true;
    for (const auto& pr : summary.pairs)
      for (const auto& r : pr.variants)
        if (r.ok && !r.byte_identical) all_identical = false;

    Table table({"Pair", "Variant", "FusedVisits", "SeqVisits", "Saved%",
                 "VisitCyclesSaved", "MemStallCyclesSaved", "ElidedLoads",
                 "FusedMs", "SeqMs", "Identical"});
    for (const auto& pr : summary.pairs) add_rows(table, pr);
    benchx::emit(table, cli.get_flag("csv"));

    obs::RunReport report = benchx::make_report(cli, "fusion");
    report.set_fusion(summary);
    report.add_table("fusion", table);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    if (!all_identical) {
      std::cerr << "fusion: fused results diverged from the sequential "
                   "baselines (see the Identical column)\n";
      return 2;
    }
    return 0;
  });
}
