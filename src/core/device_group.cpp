#include "core/device_group.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/serving.h"
#include "obs/chrome_trace.h"
#include "simt/executor.h"
#include "simt/l2cache.h"

namespace tt {

const char* batch_policy_name(BatchPolicy p) {
  switch (p) {
    case BatchPolicy::kRoundRobin: return "round_robin";
    case BatchPolicy::kSequential: return "sequential";
    case BatchPolicy::kWorkStealing: return "work_stealing";
  }
  return "?";
}

namespace {
constexpr BatchPolicy kAllBatchPolicies[] = {
    BatchPolicy::kRoundRobin, BatchPolicy::kSequential,
    BatchPolicy::kWorkStealing};
}  // namespace

BatchPolicy batch_policy_from_name(const std::string& name) {
  for (BatchPolicy p : kAllBatchPolicies)
    if (name == batch_policy_name(p)) return p;
  // Same shape as variant_from_name: list every valid spelling so a typo
  // self-diagnoses at the CLI.
  std::string valid;
  for (BatchPolicy p : kAllBatchPolicies) {
    if (!valid.empty()) valid += ", ";
    valid += batch_policy_name(p);
  }
  throw std::invalid_argument("batch_policy_from_name: unknown policy '" +
                              name + "' (valid: " + valid + ")");
}

DeviceAssignment assign_devices(std::span<const double> chunk_costs,
                                std::size_t n_devices, BatchPolicy policy) {
  if (n_devices == 0)
    throw std::invalid_argument("assign_devices: n_devices must be >= 1");
  DeviceAssignment a;
  a.device.resize(chunk_costs.size());
  a.load.assign(n_devices, 0.0);
  a.chunks.assign(n_devices, 0);
  a.steals.assign(n_devices, 0);
  const std::size_t n = chunk_costs.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t d = 0;
    switch (policy) {
      case BatchPolicy::kRoundRobin:
        d = i % n_devices;
        break;
      case BatchPolicy::kSequential:
        // Balanced contiguous blocks: device d takes chunks
        // [d*n/N, (d+1)*n/N).
        d = i * n_devices / n;
        break;
      case BatchPolicy::kWorkStealing:
        // Online earliest-finish greedy: the device with the least
        // accumulated cost takes the chunk (ties to the lowest index, so
        // the assignment is deterministic).
        for (std::size_t c = 1; c < n_devices; ++c)
          if (a.load[c] < a.load[d]) d = c;
        break;
    }
    a.device[i] = static_cast<std::uint32_t>(d);
    a.load[d] += chunk_costs[i];
    ++a.chunks[d];
    if (d != i % n_devices) ++a.steals[d];
  }
  return a;
}

double ShardedRun::copy_in_ms() const {
  double s = 0;
  for (const DeviceShard& d : devices) s += d.transfer.copy_in_ms;
  return s;
}

double ShardedRun::overlap_ms() const {
  double s = 0;
  for (const DeviceShard& d : devices) s += d.transfer.overlap_ms;
  return s;
}

double ShardedRun::exposed_ms() const {
  double s = 0;
  for (const DeviceShard& d : devices) s += d.transfer.exposed_ms;
  return s;
}

double ShardingRunSummary::single_device_ms() const {
  double s = 0;
  for (const ShardingKernelReport& k : kernels) s += k.single_device_ms;
  return s;
}

double ShardingRunSummary::makespan_ms() const {
  double s = 0;
  for (const ShardingKernelReport& k : kernels) s += k.makespan_ms;
  return s;
}

double ShardingRunSummary::speedup() const {
  const double m = makespan_ms();
  return m > 0 ? single_device_ms() / m : 1.0;
}

ShardedRun run_sharded(const LaunchSpec& spec, std::uint64_t upload_bytes,
                       std::uint64_t download_bytes,
                       const DeviceGroupConfig& cfg) {
  if (!spec.kernel || !spec.space)
    throw std::invalid_argument(
        "run_sharded: LaunchSpec is missing its kernel or address space");
  if (cfg.devices == 0)
    throw std::invalid_argument("run_sharded: cfg.devices must be >= 1");

  ShardedRun out;
  out.chunk_points = std::max<std::size_t>(cfg.chunk_points, 1);

  // Phase A: the canonical single-device baseline. Resolves auto_select
  // (sampling charged, kSelect event on spec.trace if any) and produces
  // the reference results, counters and TimeBreakdown.
  LaunchPool solo = run_launch_pool(std::span(&spec, 1), cfg.device);
  LaunchResult& base = solo.launches[0];
  out.single_device_ms =
      base.time.total_ms +
      cfg.transfer.round_trip_ms(upload_bytes, download_bytes, 1);
  if (!base.ok()) {
    out.merged = std::move(base);
    out.single_device_ms = 0;
    return out;
  }

  const std::size_t n = base.n_points;
  const std::size_t n_warps = base.n_warps;
  const auto warp_size = static_cast<std::size_t>(cfg.device.warp_size);
  const bool lockstep = !base.per_warp_pops.empty();

  // Chunk costs from the baseline's own counters: per-warp pop counts
  // (lockstep) or the warp's summed per-point visits. +1 keeps all-leaf
  // chunks from looking free to the greedy.
  std::vector<double> costs(n_warps, 1.0);
  if (lockstep) {
    for (std::size_t w = 0; w < n_warps; ++w)
      costs[w] += static_cast<double>(base.per_warp_pops[w]);
  } else {
    for (std::size_t i = 0; i < base.per_point_visits.size(); ++i)
      costs[i / warp_size] += static_cast<double>(base.per_point_visits[i]);
  }
  const DeviceAssignment asg = assign_devices(costs, cfg.devices, cfg.policy);

  // The baseline's executed composition -- the per-device runs must not
  // re-roll the auto_select dice.
  const GpuMode mode = dispatched_mode(spec.mode, base.variant);

  // Canonical-order merge target; stats/time/selection stay the baseline's.
  out.merged.kernel_name = base.kernel_name;
  out.merged.batch_index = base.batch_index;
  out.merged.variant = base.variant;
  out.merged.stats = base.stats;
  out.merged.time = base.time;
  out.merged.n_points = n;
  out.merged.n_warps = n_warps;
  out.merged.result_stride = base.result_stride;
  out.merged.selection = base.selection;
  out.merged.profile = base.profile;
  out.merged.results.assign(n * base.result_stride, std::byte{0});
  if (lockstep)
    out.merged.per_warp_pops.assign(n_warps, 0);
  else
    out.merged.per_point_visits.assign(n, 0);

  out.devices.reserve(cfg.devices);
  std::size_t cum_points = 0;  // exact byte partition across devices
  // The section-4.4 sampler ran once before the group dispatched; the
  // first working device pays it, with the same charge as every other
  // launch path (so summed device compute covers it exactly once).
  std::optional<SelectionInfo> unpaid_sampling = base.selection;

  for (std::size_t d = 0; d < cfg.devices; ++d) {
    DeviceShard sh;
    sh.device = d;
    sh.chunks = asg.chunks[d];
    sh.steals = asg.steals[d];
    sh.cost = asg.load[d];

    std::vector<std::uint32_t> warps;
    warps.reserve(sh.chunks);
    for (std::size_t w = 0; w < n_warps; ++w)
      if (asg.device[w] == d) {
        warps.push_back(static_cast<std::uint32_t>(w));
        sh.points += std::min(n, (w + 1) * warp_size) - w * warp_size;
      }

    // The device's share of the bus traffic: an exact partition of the
    // total byte counts, proportional to points (cumulative differencing,
    // so the shares sum to the whole with no rounding residue).
    const std::size_t next_points = cum_points + sh.points;
    if (n > 0) {
      sh.upload_bytes = upload_bytes * next_points / n -
                        upload_bytes * cum_points / n;
      sh.download_bytes = download_bytes * next_points / n -
                          download_bytes * cum_points / n;
    }
    cum_points = next_points;

    if (warps.empty()) {
      // Idle device: no launch, no transfer, clock stays at zero.
      out.devices.push_back(std::move(sh));
      continue;
    }

    obs::TraceSink* trace = nullptr;
    if (cfg.chrome)
      trace = &cfg.chrome->begin_launch("dev" + std::to_string(d) + "/" +
                                        base.kernel_name);
    std::unique_ptr<LaunchRun> run = spec.kernel->prepare(
        *spec.space, cfg.device, mode, trace, nullptr, kSoloKernel);

    // The device's own grid: its solo grid bounded by its chunk count, so
    // its L2 slice size is what a single device running just these chunks
    // would get.
    const std::size_t grid = std::min(run->shape.grid, warps.size());
    sh.rounds = (warps.size() + grid - 1) / grid;
    const std::size_t slice_bytes = l2_slice_bytes(cfg.device, grid);

    std::vector<KernelStats> per_slot(grid);
    std::span<const std::uint32_t> warp_span(warps);
#pragma omp parallel for schedule(dynamic, 1)
    for (std::int64_t p = 0; p < static_cast<std::int64_t>(grid); ++p) {
      if (cfg.device.model_l2) {
        L2Cache slice(slice_bytes, cfg.device.l2_line_bytes,
                      cfg.device.l2_assoc);
        run->run_shard_slot(warp_span, grid, static_cast<std::size_t>(p),
                            per_slot[static_cast<std::size_t>(p)], &slice);
      } else {
        run->run_shard_slot(warp_span, grid, static_cast<std::size_t>(p),
                            per_slot[static_cast<std::size_t>(p)], nullptr);
      }
    }
    if (run->overflow.overflowed()) {
      // Cannot happen when the baseline succeeded (same kernel, same
      // stack bound, same per-chunk traversal); belt and braces.
      out.merged.error = std::string("kernel ") + base.kernel_name +
                         " (device " + std::to_string(d) +
                         "): rope stack overflow in sharded re-execution";
      out.devices.push_back(std::move(sh));
      return out;
    }

    LaunchTotals t =
        finish_launch(per_slot, cfg.device, unpaid_sampling, nullptr, nullptr);
    unpaid_sampling.reset();
    sh.stats = std::move(t.stats);
    sh.time = t.time;

    // Pipelined transfer: the device's upload strip-mined into
    // chunk_points-sized copies overlapping its compute.
    const std::size_t copy_chunks =
        (sh.points + out.chunk_points - 1) / out.chunk_points;
    sh.transfer = cfg.transfer.pipelined_round_trip(
        sh.upload_bytes, sh.download_bytes, sh.time.total_ms,
        std::max<std::size_t>(copy_chunks, 1));
    sh.busy_ms = sh.transfer.total_ms;

    if (trace) {
      // One launch-scope copy event per pipelined upload chunk, on this
      // device's track, next to its warp rows.
      for (std::size_t c = 0; c < std::max<std::size_t>(copy_chunks, 1); ++c) {
        const std::size_t begin = c * out.chunk_points;
        const std::size_t pts = std::min(out.chunk_points, sh.points - begin);
        trace->record_launch(obs::TraceEventKind::kCopy,
                             static_cast<std::uint32_t>(c),
                             static_cast<std::uint32_t>(pts), 0,
                             static_cast<std::uint32_t>(d));
      }
    }

    // Merge this device's results and counters back in canonical order.
    const auto* data = static_cast<const std::byte*>(run->result_data());
    const std::size_t stride = base.result_stride;
    for (std::uint32_t w : warps) {
      const std::size_t begin = static_cast<std::size_t>(w) * warp_size;
      const std::size_t end =
          std::min(n, (static_cast<std::size_t>(w) + 1) * warp_size);
      std::memcpy(out.merged.results.data() + begin * stride,
                  data + begin * stride, (end - begin) * stride);
      if (lockstep)
        out.merged.per_warp_pops[w] = run->per_warp_pops[w];
      else
        std::copy(run->per_point_visits.begin() +
                      static_cast<std::ptrdiff_t>(begin),
                  run->per_point_visits.begin() +
                      static_cast<std::ptrdiff_t>(end),
                  out.merged.per_point_visits.begin() +
                      static_cast<std::ptrdiff_t>(begin));
    }

    out.devices.push_back(std::move(sh));
  }

  // The sharding contract, enforced at runtime: the merged canonical-order
  // results and visit counters must be byte-identical to the baseline's.
  if (out.merged.results != base.results ||
      out.merged.per_point_visits != base.per_point_visits ||
      out.merged.per_warp_pops != base.per_warp_pops)
    out.merged.error = std::string("kernel ") + base.kernel_name +
                       ": sharded results diverge from the single-device "
                       "baseline (sharding is required to be byte-identical)";

  for (const DeviceShard& sh : out.devices)
    out.makespan_ms = std::max(out.makespan_ms, sh.busy_ms);
  out.speedup =
      out.makespan_ms > 0 ? out.single_device_ms / out.makespan_ms : 1.0;
  return out;
}

}  // namespace tt
