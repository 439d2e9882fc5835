// Threshold / sample-count sweep of the section-4.4 auto_select sampler.
//
// For every benchmark x {morton, tree, shuffled} point order, the ground
// truth is whichever autoropes composition the cost model says is faster
// for that cell. The sweep then asks, for each (samples, threshold)
// operating point: how often does the sampler's dispatch disagree with
// that ground truth (mis-selection rate), and how much modelled time does
// the sampling itself add (overhead)? The overhead is the Delta in
// modelled ms an auto_select launch pays over its dispatched composition:
// the sampling launch's serial prologue (select_ms, priced by
// sampling_launch_cycles in core/launch.h -- the charge every launch path
// applies), reported in ms and relative to the faster composition's
// total_ms. Thresholds apply to the similarity *lift* (adjacent-pair mean
// minus random-pair baseline; see core/profiler.h for why raw similarity
// is not comparable across kernels).
//
// The HeuristicFloor column counts cells where even a *perfect* sorted
// detector would disagree with the oracle: sortedness does not fully
// determine the modelled winner (lockstep can win on shuffled inputs when
// work expansion stays low, and vice versa). The sampler's own error is
// Misselects - HeuristicFloor; at the default operating point (32
// samples, lift threshold 0.15) it should be zero, and the sweep shows
// how far samples/threshold can move before that degrades.
//
// Kernels come from core's KernelFactory (name-keyed; builders registered
// by register_bench_kernels) and run through the type-erased batch API,
// so the sweep has no per-algo construction switch of its own.
#include <array>
#include <iostream>
#include <string>
#include <vector>

#include "bench_algos/register_kernels.h"
#include "bench_common.h"
#include "core/kernel_factory.h"
#include "core/launch.h"
#include "core/profiler.h"
#include "core/serving.h"
#include "util/csv.h"

using namespace tt;

namespace {

struct Cell {
  std::string name;            // "pc/covtype/morton"
  double mean_similarity = 0;  // per sample count, filled in the sweep
  double baseline_similarity = 0;
  double select_ms = 0;  // the sampling launch's modelled prologue
  bool order_is_sorted = false;  // cell built with a spatial sort?
  bool best_is_lockstep = false;
  double best_ms = 0;  // modelled total_ms of the faster composition
};

PointOrder kOrders[] = {PointOrder::kMorton, PointOrder::kTree,
                        PointOrder::kShuffled};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "selection_sweep: mis-selection rate and sampling overhead of the "
      "section-4.4 auto_select sampler across thresholds and sample "
      "counts, benchmarks x {morton, tree, shuffled} orders");
  benchx::add_common_flags(cli);
  return benchx::run_main(cli, argc, argv, "selection_sweep", [&]() -> int {
    register_bench_kernels();
    const std::uint64_t profile_seed =
        static_cast<std::uint64_t>(cli.get_int("profile-seed"));
    const std::vector<std::size_t> sample_counts{2, 4, 8, 16, 32, 64};
    const std::vector<double> thresholds{0.05, 0.10, 0.15, 0.20, 0.25,
                                         0.30, 0.35, 0.40, 0.45};
    const DeviceConfig dev;

    // Per (cell, sample count): the measured mean similarity and sampling
    // charge. Thresholding is then arithmetic, so one profile run per
    // sample count covers the whole threshold axis.
    std::vector<std::vector<Cell>> by_samples(sample_counts.size());
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
        // Both autoropes compositions as one batch (isolated per-launch
        // measurements; byte-identical to solo runs by construction).
        std::array<LaunchSpec, 2> specs{
            LaunchSpec{handle, &space, GpuMode::from(Variant::kAutoLockstep)},
            LaunchSpec{handle, &space,
                       GpuMode::from(Variant::kAutoNolockstep)}};
        const LaunchPool run = run_launch_pool(specs, dev);
        const LaunchResult& lock = run.launches[0];
        const LaunchResult& nolock = run.launches[1];
        const bool best_lockstep = lock.time.total_ms <= nolock.time.total_ms;
        for (std::size_t si = 0; si < sample_counts.size(); ++si) {
          ProfileReport p = handle->profile(sample_counts[si], profile_seed);
          Cell c;
          c.name = std::string(kernel_name(a)) + "/" + input + "/" +
                   point_order_name(order);
          c.mean_similarity = p.mean_similarity;
          c.baseline_similarity = p.baseline_similarity;
          c.select_ms = sampling_launch_cycles(p, dev) / (dev.clock_ghz * 1e6);
          c.order_is_sorted = order != PointOrder::kShuffled;
          c.best_is_lockstep = best_lockstep;
          c.best_ms = best_lockstep ? lock.time.total_ms : nolock.time.total_ms;
          by_samples[si].push_back(c);
        }
        std::cerr << "# profiled " << kernel_name(a) << "/"
                  << point_order_name(order) << "\n";
      }
    }

    Table table({"Samples", "Threshold", "MisselectRate", "Misselects",
                 "HeuristicFloor", "Cells", "MeanSelect(ms)", "MeanOverhead%",
                 "MaxOverhead%"});
    for (std::size_t si = 0; si < sample_counts.size(); ++si) {
      const std::vector<Cell>& cells = by_samples[si];
      if (cells.empty()) continue;
      for (double threshold : thresholds) {
        std::size_t miss = 0, floor = 0;
        double select_sum = 0, overhead_sum = 0, overhead_max = 0;
        for (const Cell& c : cells) {
          const bool picks_lockstep =
              c.mean_similarity - c.baseline_similarity >= threshold;
          if (picks_lockstep != c.best_is_lockstep) ++miss;
          if (c.order_is_sorted != c.best_is_lockstep) ++floor;
          const double overhead =
              c.best_ms > 0 ? 100.0 * c.select_ms / c.best_ms : 0;
          select_sum += c.select_ms;
          overhead_sum += overhead;
          overhead_max = std::max(overhead_max, overhead);
        }
        const auto n_cells = static_cast<double>(cells.size());
        table.add_row({std::to_string(sample_counts[si]),
                       fmt_fixed(threshold, 2),
                       fmt_fixed(static_cast<double>(miss) / n_cells, 3),
                       std::to_string(miss), std::to_string(floor),
                       std::to_string(cells.size()),
                       fmt_fixed(select_sum / n_cells, 4),
                       fmt_fixed(overhead_sum / n_cells, 3),
                       fmt_fixed(overhead_max, 3)});
      }
    }
    benchx::emit(table, cli.get_flag("csv"));

    obs::RunReport report = benchx::make_report(cli, "selection_sweep");
    report.add_table("selection_sweep", table);
    if (!benchx::maybe_write_report(cli, report)) return 1;
    return 0;
  });
}
