// Per-cell regret of the section-4.4 auto_select selector.
//
// For every benchmark x {morton, tree, shuffled} point order, one launch
// pool runs every eligible concrete variant and auto_select, sampled at
// --profile-samples / --profile-seed (isolated per-launch measurements,
// byte-identical to solo runs). Each row shows the composition the
// selector chose and its two predictions (selection.predicted_*_ms,
// core/launch.h price_compositions) next to what the two autoropes
// compositions actually cost, and two regrets:
//   Regret(L,N)  the chosen composition's total_ms over min(L, N): the
//                decision's own quality, 1.000 when it picked the faster;
//   Regret(best) auto_select's total_ms, sampling prologue included, over
//                the fastest concrete variant's (Best).
// Select(ms) is that prologue (select_ms). The summary table counts the
// cells whose Regret(L,N) exceeds 1.10.
//
// Kernels come from core's KernelFactory (name-keyed; builders registered
// by register_bench_kernels) and run through the type-erased launch pool,
// so the sweep has no per-algo construction switch of its own.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_algos/register_kernels.h"
#include "bench_common.h"
#include "core/kernel_factory.h"
#include "core/launch.h"
#include "core/serving.h"
#include "util/csv.h"

using namespace tt;

namespace {

PointOrder kOrders[] = {PointOrder::kMorton, PointOrder::kTree,
                        PointOrder::kShuffled};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "selection_sweep: per-cell regret of the section-4.4 auto_select "
      "selector (predicted vs actual lockstep / non-lockstep time), "
      "benchmarks x {morton, tree, shuffled} orders");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "selection_sweep", [&]() -> int {
    register_bench_kernels();
    const DeviceConfig dev;
    GpuMode auto_mode = GpuMode::from(Variant::kAutoSelect);
    auto_mode.profile_samples = benchx::profile_samples(cli);
    auto_mode.profile_seed =
        static_cast<std::uint64_t>(cli.get_int("profile-seed"));

    Table table({"Cell", "Chosen", "PredL(ms)", "PredN(ms)", "L(ms)", "N(ms)",
                 "Regret(L,N)", "Best", "Best(ms)", "Regret(best)",
                 "Select(ms)"});
    std::size_t cells = 0, over = 0;
    double max_regret = 0, best_regret_sum = 0, select_sum = 0;
    for (Algo a : benchx::parse_algos(cli.get_string("benchmarks"))) {
      for (PointOrder order : kOrders) {
        if (a == Algo::kBH && order == PointOrder::kTree)
          continue;  // the harness never tree-orders 3-d bodies
        KernelRequest req;
        req.n = static_cast<std::size_t>(a == Algo::kBH ? cli.get_int("bodies")
                                                        : cli.get_int("points"));
        req.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
        req.k = static_cast<int>(cli.get_int("k"));
        req.pc_target_neighbors = cli.get_double("pc-neighbors");
        req.bh_theta = static_cast<float>(cli.get_double("theta"));
        req.order = order;
        std::string input = a == Algo::kBH ? "plummer" : "covtype";
        if (a != Algo::kBH && order == PointOrder::kMorton) {
          // Morton order needs <= 3 dimensions; sweep it on the uniform
          // 3-d variant of each tree benchmark.
          input = "uniform";
          req.dim = 3;
        }
        req.input = input;

        GpuAddressSpace space;
        auto handle =
            KernelFactory::instance().make(kernel_name(a), req, space);
        std::vector<LaunchSpec> specs;
        for (Variant v : kAllVariants) {
          if (!handle->variant_ineligible_reason(v).empty()) continue;
          specs.push_back(LaunchSpec{
              handle, &space,
              v == Variant::kAutoSelect ? auto_mode : GpuMode::from(v)});
        }
        const LaunchPool pool = run_launch_pool(specs, dev);
        const LaunchResult* sel = nullptr;
        const LaunchResult* lock = nullptr;
        const LaunchResult* nolock = nullptr;
        const LaunchResult* best = nullptr;
        for (const LaunchResult& r : pool.launches) {
          if (!r.ok())
            throw std::runtime_error(r.error);
          if (r.selection) {
            sel = &r;
            continue;
          }
          if (r.variant == Variant::kAutoLockstep) lock = &r;
          if (r.variant == Variant::kAutoNolockstep) nolock = &r;
          if (!best || r.time.total_ms < best->time.total_ms) best = &r;
        }
        const SelectionInfo& s = *sel->selection;
        const double oracle = std::min(lock->time.total_ms,
                                       nolock->time.total_ms);
        const double chosen = s.chosen == Variant::kAutoLockstep
                                  ? lock->time.total_ms
                                  : nolock->time.total_ms;
        const double regret = chosen / oracle;
        const double best_regret = sel->time.total_ms / best->time.total_ms;
        ++cells;
        if (regret > 1.10) ++over;
        max_regret = std::max(max_regret, regret);
        best_regret_sum += best_regret;
        select_sum += sel->time.select_ms;
        table.add_row({std::string(kernel_name(a)) + "/" + input + "/" +
                           point_order_name(order),
                       s.chosen == Variant::kAutoLockstep ? "L" : "N",
                       fmt_fixed(s.predicted_lockstep_ms, 4),
                       fmt_fixed(s.predicted_nolockstep_ms, 4),
                       fmt_fixed(lock->time.total_ms, 4),
                       fmt_fixed(nolock->time.total_ms, 4),
                       fmt_fixed(regret, 3), variant_name(best->variant),
                       fmt_fixed(best->time.total_ms, 4),
                       fmt_fixed(best_regret, 3),
                       fmt_fixed(sel->time.select_ms, 4)});
        std::cerr << "# ran " << kernel_name(a) << "/"
                  << point_order_name(order) << "\n";
      }
    }

    Table summary({"Cells", "Over1.10", "MaxRegret(L,N)", "MeanRegret(best)",
                   "MeanSelect(ms)"});
    const double n_cells = cells ? static_cast<double>(cells) : 1.0;
    summary.add_row({std::to_string(cells), std::to_string(over),
                     fmt_fixed(max_regret, 3),
                     fmt_fixed(best_regret_sum / n_cells, 3),
                     fmt_fixed(select_sum / n_cells, 4)});
    benchx::emit(table, cli.get_flag("csv"));
    benchx::emit(summary, cli.get_flag("csv"));

    obs::RunReport report = benchx::make_report(cli, "selection_sweep");
    report.add_table("selection_sweep", table);
    report.add_table("selection_summary", summary);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
