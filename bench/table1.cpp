// Table 1 reproduction: performance summary of the transformed traversals.
//
// For every benchmark x input x {sorted, unsorted} x {lockstep (L),
// non-lockstep (N)} this prints: modelled GPU traversal time, average
// nodes visited per point (per warp for L), speedup vs the 1-thread and
// modelled 32-thread CPU runs, and the improvement of the autoropes GPU
// variant over the equivalent naive recursive GPU variant -- the same
// columns as the paper's Table 1.
//
// Absolute times come from the SIMT machine's cost model (DESIGN.md
// section 2), so only ratios and orderings are comparable to the paper.
#include <iostream>

#include "bench_common.h"
#include "util/csv.h"

using namespace tt;

namespace {

void add_rows(Table& table, const BenchRow& row) {
  auto variant_row = [&](bool lockstep) {
    const VariantResult& v = row.result(lockstep ? Variant::kAutoLockstep
                                                 : Variant::kAutoNolockstep);
    if (!v.ok()) {
      const bool skipped = v.error.rfind("skipped", 0) == 0;
      if (skipped) return;  // --variant filtered this row out entirely
      table.add_row({
          algo_name(row.config.algo),
          input_name(row.config.input),
          row.config.sorted ? "sorted" : "unsorted",
          lockstep ? "L" : "N",
          "FAILED", "-", "-", "-", "-", "-",
      });
      return;
    }
    // vsRecurse needs the matching recursive variant; it may have failed
    // or been excluded by --variant.
    const VariantResult& rec = row.result(lockstep ? Variant::kRecLockstep
                                                   : Variant::kRecNolockstep);
    table.add_row({
        algo_name(row.config.algo),
        input_name(row.config.input),
        row.config.sorted ? "sorted" : "unsorted",
        lockstep ? "L" : "N",
        fmt_fixed(v.time.total_ms, 3),
        fmt_fixed(v.avg_nodes, 0),
        fmt_fixed(row.speedup_vs_1(v), 2),
        fmt_fixed(row.speedup_vs_32(v), 2),
        rec.ok() ? fmt_percent(row.improvement_vs_recursive(lockstep)) : "-",
        fmt_fixed(row.transfer_ms(), 3),
    });
  };
  variant_row(true);
  variant_row(false);

  // auto_select (section 4.4): Type shows the launch decision -- "A[L]"
  // when the sampler dispatched to lockstep, "A[N]" for non-lockstep --
  // and Time(ms) includes the charged sampling cost, so this row being
  // close to the better of L/N *is* the claim the variant makes.
  const VariantResult& av = row.result(Variant::kAutoSelect);
  if (!av.ok()) {
    if (av.error.rfind("skipped", 0) == 0) return;
    table.add_row({
        algo_name(row.config.algo),
        input_name(row.config.input),
        row.config.sorted ? "sorted" : "unsorted",
        "A[?]",
        "FAILED", "-", "-", "-", "-", "-",
    });
    return;
  }
  const bool chose_lockstep =
      av.selection && av.selection->chosen == Variant::kAutoLockstep;
  const VariantResult& rec = row.result(
      chose_lockstep ? Variant::kRecLockstep : Variant::kRecNolockstep);
  table.add_row({
      algo_name(row.config.algo),
      input_name(row.config.input),
      row.config.sorted ? "sorted" : "unsorted",
      chose_lockstep ? "A[L]" : "A[N]",
      fmt_fixed(av.time.total_ms, 3),
      fmt_fixed(av.avg_nodes, 0),
      fmt_fixed(row.speedup_vs_1(av), 2),
      fmt_fixed(row.speedup_vs_32(av), 2),
      rec.ok() ? fmt_percent(rec.time.total_ms / av.time.total_ms - 1.0) : "-",
      fmt_fixed(row.transfer_ms(), 3),
  });
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "table1: paper Table 1 -- per-variant traversal time, avg nodes, "
      "speedups vs CPU, improvement vs recursive GPU");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "table1", [&]() -> int {
    benchx::ChromeTrace chrome(cli);
    Table table({"Benchmark", "Input", "Order", "Type", "Time(ms)",
                 "AvgNodes", "vs1T", "vs32T", "vsRecurse", "Xfer(ms)"});
    obs::RunReport report = benchx::make_report(cli, "table1");
    for (Algo a : benchx::parse_algos(cli.get_string("benchmarks"))) {
      auto analysis = analysis_for(a);
      std::cerr << "# " << algo_name(a) << ": "
                << analysis.call_sets.size() << " call set(s), "
                << (analysis.cls == ir::TraversalClass::kUnguided ? "unguided"
                                                                  : "guided")
                << "\n";
      for (InputKind in : inputs_for(a))
        for (bool sorted : {true, false}) {
          BenchRow row = run_bench(
              benchx::config_from(cli, a, in, sorted, chrome.collector()));
          add_rows(table, row);
          report.add_row(row);
          std::cerr << "# done " << algo_name(a) << "/" << input_name(in)
                    << (sorted ? " sorted" : " unsorted")
                    << " (cpu t1 " << fmt_fixed(row.cpu_t1_ms, 1)
                    << " ms)\n";
        }
    }
    benchx::emit(table, cli.get_flag("csv"));
    report.add_table("table1", table, /*volatile_data=*/true);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    if (!chrome.write()) return 1;
    return 0;
  });
}
