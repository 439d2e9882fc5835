// Serving harness: open-loop traffic over the admission--dispatch layer
// (core/serving.h). Queries drawn from a pool of prepared benchmark
// kernels arrive on a Poisson or bursty (on-off) trace and are admitted
// into a ServingSession, which dispatches a wave the moment a device is
// idle, holding at most --drain-max-batch of the queries that waited.
// Reported: throughput, p50/p95/p99 modelled latency, queue-depth /
// occupancy telemetry, per-drain records, and the wave-size sweep: the
// same trace with the cap at 1..32 queries, showing how much of the
// batching (launch overheads and transfer amortized) the cap lets busy
// devices keep. All times are modelled milliseconds, so the whole report is
// deterministic for a given seed (and byte-identical across
// OMP_NUM_THREADS settings).
//
// The session decides each (kernel, mode) pair once: its first query
// samples and pays the section-4.4 prologue, and identical resubmissions
// replay the dispatched composition's measurements -- exact, because
// batching is results-neutral -- so traces with millions of queries cost
// O(pool size) simulations.
#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_common.h"
#include "core/serving.h"
#include "util/csv.h"
#include "util/rng.h"

using namespace tt;

namespace {

struct PoolEntry {
  BenchConfig config;
  std::unique_ptr<PreparedKernel> kernel;
};

// Mean solo service time of the pool as a replayed query pays it: one
// round trip + the dispatched composition's modelled time, without the
// sampling prologue only a pair's first query pays. One device's
// capacity is its inverse -- the estimate behind --rate-qps=0's auto rate.
// A probe launch that fails throws with its error.
double probe_mean_service_ms(const std::vector<PoolEntry>& pool,
                             const DeviceConfig& device,
                             const TransferModel& transfer,
                             const GpuMode& mode) {
  std::vector<LaunchSpec> specs;
  specs.reserve(pool.size());
  for (const PoolEntry& e : pool) {
    LaunchSpec s;
    s.kernel = e.kernel->handle;
    s.space = &e.kernel->space;
    s.mode = mode;
    specs.push_back(s);
  }
  const LaunchPool probe = run_launch_pool(specs, device);
  double sum = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const LaunchResult& r = probe.launches[i];
    if (!r.ok()) throw std::runtime_error("auto rate probe: " + r.error);
    sum += r.time.kernel_ms() +
           transfer.round_trip_ms(pool[i].kernel->upload_bytes,
                                  pool[i].kernel->download_bytes, 1);
  }
  return sum / static_cast<double>(pool.size());
}

// One full session over the fixed (trace, pick) sequence; `chrome` only on
// the headline run so sweep points don't pollute the trace file.
ServingReport run_session(const std::vector<PoolEntry>& pool,
                          const std::vector<double>& trace,
                          const std::vector<std::size_t>& picks,
                          const ServingConfig& cfg, const GpuMode& mode) {
  ServingSession session(cfg);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const PoolEntry& e = pool[picks[i]];
    QuerySet q;
    q.spec.kernel = e.kernel->handle;
    q.spec.space = &e.kernel->space;
    q.spec.mode = mode;
    q.upload_bytes = e.kernel->upload_bytes;
    q.download_bytes = e.kernel->download_bytes;
    session.submit(std::move(q), trace[i]);
  }
  session.flush();
  return session.report();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "serving: open-loop arrival traffic through the ServingSession "
      "admission layer -- throughput, p50/p95/p99 modelled latency, queue "
      "telemetry, and the wave-size sweep");
  benchx::add_common_flags(cli);
  cli.add_int("queries", 512, "queries to submit");
  cli.add_string("arrivals", "poisson",
                 "arrival process: poisson or bursty (on-off modulated)");
  cli.add_double("rate-qps", 0.0,
                 "mean arrival rate in queries per modelled second "
                 "(0 = auto: --utilization of the probed capacity of "
                 "--devices devices)");
  cli.add_double("utilization", 0.7,
                 "auto-rate target: fraction of the group's probed "
                 "capacity (--devices x one device's replayed service "
                 "rate)");
  cli.add_double("burst-on-ms", 2.0, "bursty: ON-window length");
  cli.add_double("burst-off-ms", 2.0, "bursty: silent gap between windows");
  cli.add_double("burst-factor", 4.0,
                 "bursty: ON-window rate as a multiple of the mean rate "
                 "(duty-cycle corrected)");
  cli.add_int("drain-max-batch", 8,
              "most queries one wave takes when a device frees up");
  cli.add_int("queue-capacity", 4096,
              "ring-buffer admission queue capacity (full = drop)");
  cli.add_int("devices", 1,
              "simulated device count; each wave dispatches to the "
              "earliest-free device (1 = the single-device model)");
  cli.add_string("serve-variant", "auto_select",
                 "the composition every served launch simulates");
  cli.add_flag("sweep", true,
               "also sweep --drain-max-batch over 1..32 (--no-sweep to "
               "skip)");

  return benchx::run_main(cli, argc, argv, "serving", [&]() -> int {
    benchx::ChromeTrace chrome(cli);
    const auto n_queries = static_cast<std::size_t>(cli.get_int("queries"));
    if (cli.get_int("queries") <= 0)
      throw std::invalid_argument("--queries must be >= 1");
    const std::string arrivals = cli.get_string("arrivals");
    if (arrivals != "poisson" && arrivals != "bursty")
      throw std::invalid_argument("--arrivals must be poisson or bursty");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

    // The query pool: one prepared kernel per selected benchmark (first
    // input of each, sorted) -- the same cells bench/sharding shards.
    std::vector<PoolEntry> pool;
    for (Algo a : benchx::parse_algos(cli.get_string("benchmarks"))) {
      PoolEntry e;
      e.config =
          benchx::config_from(cli, a, inputs_for(a).front(), /*sorted=*/true);
      e.kernel = prepare_kernel(e.config);
      pool.push_back(std::move(e));
    }

    GpuMode mode = GpuMode::from(variant_from_name(
        cli.get_string("serve-variant")));
    mode.profile_samples = pool.front().config.profile_samples;
    mode.profile_seed = pool.front().config.profile_seed;

    const DeviceConfig device;
    const TransferModel transfer;

    if (cli.get_int("devices") <= 0)
      throw std::invalid_argument("--devices must be >= 1");
    const auto devices = static_cast<std::size_t>(cli.get_int("devices"));

    double rate_qps = cli.get_double("rate-qps");
    if (rate_qps <= 0) {
      const double mean_ms =
          probe_mean_service_ms(pool, device, transfer, mode);
      rate_qps = cli.get_double("utilization") *
                 static_cast<double>(devices) * 1e3 / mean_ms;
      std::cerr << "# auto rate: pool mean service "
                << fmt_fixed(mean_ms, 3) << " ms x " << devices
                << " device(s) -> " << fmt_fixed(rate_qps, 1)
                << " qps at utilization "
                << fmt_fixed(cli.get_double("utilization"), 2) << "\n";
    }

    // Arrival trace + per-query pool picks, fixed once so the headline
    // session and every sweep point serve the identical workload.
    std::vector<double> trace;
    if (arrivals == "poisson") {
      trace = poisson_trace(n_queries, rate_qps, seed);
    } else {
      const double on_ms = cli.get_double("burst-on-ms");
      const double off_ms = cli.get_double("burst-off-ms");
      const double factor = cli.get_double("burst-factor");
      // ON-rate such that the duty-cycle-weighted mean stays rate_qps
      // when factor == (on+off)/on; larger factors burst harder.
      trace = bursty_trace(n_queries, rate_qps * factor, on_ms, off_ms, seed);
    }
    std::vector<std::size_t> picks(n_queries);
    Pcg32 pick_rng(seed, 0x9015e7);
    for (std::size_t i = 0; i < n_queries; ++i)
      picks[i] = pick_rng.next_below(static_cast<std::uint32_t>(pool.size()));

    ServingConfig scfg;
    scfg.device = device;
    scfg.transfer = transfer;
    const long long max_batch = cli.get_int("drain-max-batch");
    if (max_batch <= 0)
      throw std::invalid_argument("--drain-max-batch must be >= 1");
    scfg.drain.max_batch = static_cast<std::size_t>(max_batch);
    const long long capacity = cli.get_int("queue-capacity");
    if (capacity <= 0)
      throw std::invalid_argument("--queue-capacity must be >= 1");
    scfg.queue_capacity = static_cast<std::size_t>(capacity);
    scfg.devices = devices;
    scfg.chrome = chrome.collector();

    ServingRunSummary summary;
    summary.arrivals = arrivals;
    summary.rate_qps = rate_qps;
    summary.n_queries = n_queries;
    summary.devices = scfg.devices;
    summary.drain = scfg.drain;
    summary.variant = mode.variant();
    summary.queue_capacity = scfg.queue_capacity;
    summary.transfer = transfer;
    summary.report = run_session(pool, trace, picks, scfg, mode);
    const ServingReport& r = summary.report;

    Table head({"Metric", "Value"});
    head.add_row({"queries", std::to_string(r.submitted)});
    head.add_row({"completed", std::to_string(r.completed)});
    head.add_row({"dropped", std::to_string(r.dropped)});
    head.add_row({"failed", std::to_string(r.failed)});
    head.add_row({"drains", std::to_string(r.drains.size())});
    head.add_row({"devices", std::to_string(r.devices)});
    head.add_row({"throughput (qps)", fmt_fixed(r.throughput_qps(), 1)});
    head.add_row({"occupancy", fmt_fixed(r.occupancy(), 3)});
    head.add_row({"latency p50 (ms)", fmt_fixed(r.latency.p50, 3)});
    head.add_row({"latency p95 (ms)", fmt_fixed(r.latency.p95, 3)});
    head.add_row({"latency p99 (ms)", fmt_fixed(r.latency.p99, 3)});
    head.add_row({"queue delay p50 (ms)", fmt_fixed(r.queue_delay.p50, 3)});
    head.add_row({"queue depth max", std::to_string(r.queue_depth_max)});
    head.add_row({"queue depth mean", fmt_fixed(r.queue_depth.mean, 2)});
    head.add_row(
        {"transfer amortized (ms)", fmt_fixed(r.amortized_transfer_ms(), 3)});
    head.add_row({"transfer summed solo (ms)",
                  fmt_fixed(r.summed_solo_transfer_ms(), 3)});
    benchx::emit(head, cli.get_flag("csv"));

    Table pool_table(
        {"Kernel", "Benchmark", "Input", "Points", "Upload(B)",
         "Download(B)"});
    for (const PoolEntry& e : pool)
      pool_table.add_row({e.kernel->handle->name(), algo_name(e.config.algo),
                          input_name(e.config.input),
                          std::to_string(e.config.n),
                          std::to_string(e.kernel->upload_bytes),
                          std::to_string(e.kernel->download_bytes)});

    std::cerr << "# serving: " << arrivals << " arrivals at "
              << fmt_fixed(rate_qps, 1) << " qps, " << r.drains.size()
              << " drains, throughput " << fmt_fixed(r.throughput_qps(), 1)
              << " qps, p50/p95/p99 " << fmt_fixed(r.latency.p50, 3) << "/"
              << fmt_fixed(r.latency.p95, 3) << "/"
              << fmt_fixed(r.latency.p99, 3) << " ms\n";

    if (cli.get_flag("sweep")) {
      // The wave-size cap: waves only grow while every device is busy, so
      // a larger cap lets a backlog leave in fewer launches (less launch
      // overhead, more transfer saved); max_batch = 1 never batches.
      // Identical workload at every point.
      Table sweep_table({"MaxBatch", "Drains", "MeanBatch", "p50(ms)",
                         "p95(ms)", "p99(ms)", "Thru(qps)",
                         "XferSaved(ms)"});
      for (const std::size_t cap : {1u, 2u, 4u, 8u, 16u, 32u}) {
        ServingConfig sc = scfg;
        sc.chrome = nullptr;
        sc.drain.max_batch = cap;
        const ServingReport sr = run_session(pool, trace, picks, sc, mode);
        ServingSweepPoint p;
        p.max_batch = cap;
        p.drains = sr.drains.size();
        p.mean_batch = sr.drains.empty()
                           ? 0
                           : static_cast<double>(sr.completed) /
                                 static_cast<double>(sr.drains.size());
        p.p50_ms = sr.latency.p50;
        p.p95_ms = sr.latency.p95;
        p.p99_ms = sr.latency.p99;
        p.throughput_qps = sr.throughput_qps();
        p.transfer_saved_ms =
            sr.summed_solo_transfer_ms() - sr.amortized_transfer_ms();
        summary.sweep.push_back(p);
        sweep_table.add_row(
            {std::to_string(p.max_batch), std::to_string(p.drains),
             fmt_fixed(p.mean_batch, 2), fmt_fixed(p.p50_ms, 3),
             fmt_fixed(p.p95_ms, 3), fmt_fixed(p.p99_ms, 3),
             fmt_fixed(p.throughput_qps, 1),
             fmt_fixed(p.transfer_saved_ms, 3)});
      }
      benchx::emit(sweep_table, cli.get_flag("csv"));

      obs::RunReport report = benchx::make_report(cli, "serving");
      report.set_serving(summary);
      report.add_table("serving", head);
      report.add_table("serving_pool", pool_table);
      report.add_table("serving_sweep", sweep_table);
      if (!benchx::maybe_write_report(cli, report)) return 1;
    } else {
      obs::RunReport report = benchx::make_report(cli, "serving");
      report.set_serving(summary);
      report.add_table("serving", head);
      report.add_table("serving_pool", pool_table);
      if (!benchx::maybe_write_report(cli, report)) return 1;
    }
    if (!chrome.write()) return 1;
    return r.failed == 0 ? 0 : 1;
  });
}
