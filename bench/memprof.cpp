// bench/memprof: the memory telescope. Per-buffer / per-field attribution
// of every 128-byte transaction a launch issued (simt/memory_attr.h,
// charged at the single WarpMemory::commit site), swept over kernels x
// variants x point orders:
//
//   memory_hot       -- the per-(kernel, variant) hot-buffer table: load
//                       groups, replayed loads, issued-vs-ideal segments
//                       (coalescing efficiency), L2-hit/DRAM splits and
//                       derived mem-stall cycles, ranked by DRAM traffic.
//   memory_fields    -- the per-field split of the node arrays: which
//                       *member* of the node record the stall cycles and
//                       DRAM bytes charge to.
//   memory_coalesce  -- the worst-coalesced buffers across the sweep
//                       (efficiency ascending): where replays and sparse
//                       segments come from.
//   layout_split     -- the paper's section-5 usage-based struct-splitting
//                       decision, measured instead of argued: PC run with
//                       split nodes0/nodes1 arrays vs one interleaved
//                       record, compared on per-visit node-array DRAM
//                       transactions. The decision is usage-based, and the
//                       table shows both directions: rope (stackless)
//                       traversal never touches nodes1 (children come from
//                       the rope table), so the split packs its hot bbox
//                       bytes densely and per-visit DRAM drops; the
//                       stack-based variants read both halves at every
//                       visit, so interleaving co-locates them and the
//                       split buys nothing there.
//
// With --json the report also carries the full run_bench rows; under
// --profile each ok variant embeds its "memory" block, whose
// row sums tools/json_validate re-checks against the aggregate
// KernelStats counters with exact equality. All emitted numbers are
// deterministic (modelled counters, no wall clock), so the report is
// byte-identical across OMP thread counts -- CI pins that.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_algos/harness.h"
#include "bench_algos/pc/point_correlation.h"
#include "bench_common.h"
#include "core/gpu_executors.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "obs/profile.h"
#include "spatial/kdtree.h"
#include "util/csv.h"

using namespace tt;

namespace {

// One swept measurement: the harness row's identity plus its attribution.
struct Swept {
  std::string kernel;
  std::string order;
  std::string variant;
  const MemoryAttribution* memory;
};

std::string fmt_eff(double eff) { return fmt_fixed(eff, 4); }

}  // namespace

int main(int argc, char** argv) {
  Cli cli("memprof: per-buffer / per-field memory-traffic attribution");
  benchx::add_common_flags(cli);
  cli.add_int("top", 8, "hot/worst-coalesced buffer rows per launch");
  return benchx::run_main(cli, argc, argv, "memprof", [&]() -> int {
    const auto top = static_cast<std::size_t>(cli.get_int("top"));
    obs::RunReport report = benchx::make_report(cli, "memprof");
    benchx::ChromeTrace chrome(cli);

    // -----------------------------------------------------------------
    // Kernel x variant x order sweep through the full harness (pc + nn,
    // the same pair the other smoke grids use). The rows land in the
    // --json report, so --profile exports every variant's "memory" block.
    // -----------------------------------------------------------------
    std::vector<BenchRow> rows;
    for (Algo a : {Algo::kPC, Algo::kNN})
      for (bool sorted : {true, false})
        rows.push_back(run_bench(benchx::config_from(
            cli, a, inputs_for(a).front(), sorted, chrome.collector())));
    for (const BenchRow& row : rows) report.add_row(row);

    std::vector<Swept> swept;
    for (const BenchRow& row : rows)
      for (Variant v : kAllVariants) {
        const VariantResult& r = row.result(v);
        if (!r.ok() || r.stats.memory.empty()) continue;
        swept.push_back({algo_name(row.config.algo),
                         row.config.sorted ? "sorted" : "unsorted",
                         variant_name(v), &r.stats.memory});
      }

    Table hot({"Kernel", "Order", "Variant", "Buffer", "Groups", "Replays",
               "Segs", "Eff", "L2 hit", "DRAM", "DRAM B", "Stall cyc"});
    for (const Swept& s : swept)
      for (const BufferTraffic* r : obs::hot_buffers(*s.memory, top))
        hot.add_row({s.kernel, s.order, s.variant, r->name,
                     std::to_string(r->load_groups),
                     std::to_string(r->replayed_loads),
                     std::to_string(r->issued_segments),
                     fmt_eff(r->coalescing_efficiency()),
                     std::to_string(r->l2_hit_transactions),
                     std::to_string(r->dram_transactions),
                     std::to_string(r->dram_bytes),
                     fmt_fixed(r->mem_stall_cycles, 1)});

    // Per-field split of the annotated buffers (the node arrays): stall
    // share by record member. One representative variant per family keeps
    // the table readable; the --json memory blocks carry all of them.
    Table fields({"Kernel", "Order", "Variant", "Buffer", "Field", "Txn",
                  "DRAM", "DRAM B", "Stall cyc", "Stall %"});
    for (const Swept& s : swept) {
      if (s.variant != variant_name(Variant::kAutoNolockstep)) continue;
      for (const BufferTraffic* r : s.memory->sorted_rows()) {
        if (r->fields.empty() || r->issued_segments == 0) continue;
        for (const FieldTraffic& f : r->fields) {
          const double share = r->mem_stall_cycles > 0
                                   ? 100.0 * f.mem_stall_cycles /
                                         r->mem_stall_cycles
                                   : 0.0;
          fields.add_row({s.kernel, s.order, s.variant, r->name, f.name,
                          fmt_fixed(f.transactions, 2),
                          fmt_fixed(f.dram, 2),
                          fmt_fixed(f.dram_bytes, 0),
                          fmt_fixed(f.mem_stall_cycles, 1),
                          fmt_fixed(share, 1)});
        }
      }
    }

    // The worst-coalesced sites across the whole sweep: one row per
    // (launch, buffer), efficiency ascending.
    struct Worst {
      const Swept* s;
      const BufferTraffic* r;
    };
    std::vector<Worst> worst;
    for (const Swept& s : swept)
      for (const BufferTraffic* r : s.memory->worst_coalesced(top))
        worst.push_back({&s, r});
    std::sort(worst.begin(), worst.end(), [](const Worst& a, const Worst& b) {
      const double ea = a.r->coalescing_efficiency();
      const double eb = b.r->coalescing_efficiency();
      if (ea != eb) return ea < eb;
      if (a.s->kernel != b.s->kernel) return a.s->kernel < b.s->kernel;
      if (a.s->order != b.s->order) return a.s->order < b.s->order;
      if (a.s->variant != b.s->variant) return a.s->variant < b.s->variant;
      return a.r->name < b.r->name;
    });
    if (worst.size() > top) worst.resize(top);
    Table coalesce({"Kernel", "Order", "Variant", "Buffer", "Eff", "Issued",
                    "Ideal", "Replays"});
    for (const Worst& w : worst)
      coalesce.add_row({w.s->kernel, w.s->order, w.s->variant, w.r->name,
                        fmt_eff(w.r->coalescing_efficiency()),
                        std::to_string(w.r->issued_segments),
                        std::to_string(w.r->ideal_segments),
                        std::to_string(w.r->replayed_loads)});

    // -----------------------------------------------------------------
    // The section-5 struct-splitting decision, reproduced from
    // measurements: PC with split nodes0/nodes1 vs one interleaved
    // record, compared on per-visit node-array DRAM transactions.
    // -----------------------------------------------------------------
    Table layout({"Order", "Variant", "Layout", "Node DRAM", "Lane visits",
                  "DRAM/visit"});
    const auto n = static_cast<std::size_t>(cli.get_int("points"));
    for (bool sorted : {true, false}) {
      PointSet pts = gen_covtype_like(n, 7, 42);
      auto perm = sorted ? tree_order(pts, 8) : shuffled_order(n, 42);
      pts.permute(perm);
      KdTree tree = build_kdtree(pts, 8);
      const float r =
          pc_pick_radius(pts, cli.get_double("pc-neighbors"), 42);
      for (Variant v : {Variant::kAutoLockstep, Variant::kAutoNolockstep,
                        Variant::kStacklessLockstep}) {
        if (!benchx::variant_enabled(cli, v)) continue;
        for (NodeLayout lay : {NodeLayout::kSplit, NodeLayout::kInterleaved}) {
          GpuAddressSpace space;
          PointCorrelationKernel k(tree, pts, r, space, lay);
          auto g = run_gpu_sim(k, space, DeviceConfig{}, GpuMode::from(v));
          std::uint64_t node_dram = 0;
          for (const BufferTraffic& row : g.stats.memory.rows())
            if (row.name == "pc_nodes" || row.name == "pc_nodes0" ||
                row.name == "pc_nodes1")
              node_dram += row.dram_transactions;
          const double per_visit =
              g.stats.lane_visits > 0
                  ? static_cast<double>(node_dram) /
                        static_cast<double>(g.stats.lane_visits)
                  : 0.0;
          layout.add_row({sorted ? "sorted" : "unsorted", variant_name(v),
                          lay == NodeLayout::kSplit ? "split" : "interleaved",
                          std::to_string(node_dram),
                          std::to_string(g.stats.lane_visits),
                          fmt_fixed(per_visit, 4)});
        }
      }
    }

    const bool csv = cli.get_flag("csv");
    std::cout << "== memory_hot ==\n";
    benchx::emit(hot, csv);
    std::cout << "\n== memory_fields ==\n";
    benchx::emit(fields, csv);
    std::cout << "\n== memory_coalesce ==\n";
    benchx::emit(coalesce, csv);
    std::cout << "\n== layout_split ==\n";
    benchx::emit(layout, csv);

    report.add_table("memory_hot", hot);
    report.add_table("memory_fields", fields);
    report.add_table("memory_coalesce", coalesce);
    report.add_table("layout_split", layout);
    if (!chrome.write()) return 1;
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
