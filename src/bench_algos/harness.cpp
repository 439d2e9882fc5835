#include "bench_algos/harness.h"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench_algos/bh/barnes_hut.h"
#include "bench_algos/knn/knn.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/register_kernels.h"
#include "bench_algos/vp/vantage_point.h"
#include "core/cpu_executors.h"
#include "core/gpu_executors.h"
#include "core/static_ropes.h"
#include "cpu/parallel.h"
#include "obs/chrome_trace.h"
#include "obs/profile.h"
#include "spatial/octree.h"

namespace tt {

std::string algo_name(Algo a) {
  switch (a) {
    case Algo::kBH: return "Barnes-Hut";
    case Algo::kPC: return "PointCorrelation";
    case Algo::kKNN: return "kNearestNeighbor";
    case Algo::kNN: return "NearestNeighbor";
    case Algo::kVP: return "VantagePoint";
  }
  return "?";
}

std::string input_name(InputKind i) {
  switch (i) {
    case InputKind::kPlummer: return "Plummer";
    case InputKind::kRandomBodies: return "Random";
    case InputKind::kCovtype: return "Covtype";
    case InputKind::kMnist: return "Mnist";
    case InputKind::kUniform: return "Random";
    case InputKind::kGeocity: return "Geocity";
  }
  return "?";
}

std::vector<InputKind> inputs_for(Algo a) {
  if (a == Algo::kBH)
    return {InputKind::kPlummer, InputKind::kRandomBodies};
  return {InputKind::kCovtype, InputKind::kMnist, InputKind::kUniform,
          InputKind::kGeocity};
}

ir::AnalysisReport analysis_for(Algo a) {
  switch (a) {
    case Algo::kBH: return ir::analyze(bh_ir());
    case Algo::kPC: return ir::analyze(pc_ir());
    case Algo::kKNN: return ir::analyze(knn_ir());
    case Algo::kNN: return ir::analyze(nn_ir());
    case Algo::kVP: return ir::analyze(vp_ir());
  }
  throw std::logic_error("analysis_for: bad algo");
}

const char* kernel_name(Algo a) {
  switch (a) {
    case Algo::kBH: return "bh";
    case Algo::kPC: return "pc";
    case Algo::kKNN: return "knn";
    case Algo::kNN: return "nn";
    case Algo::kVP: return "vp";
  }
  return "?";
}

KernelRequest kernel_request(const BenchConfig& cfg) {
  KernelRequest r;
  r.n = cfg.n;
  r.seed = cfg.seed;
  r.dim = cfg.dim;
  r.k = cfg.k;
  r.pc_target_neighbors = cfg.pc_target_neighbors;
  r.bh_theta = cfg.bh_theta;
  r.bh_eps2 = cfg.bh_eps2;
  r.bh_dt = cfg.bh_dt;
  r.leaf_size = cfg.leaf_size;
  int dim = cfg.dim;  // of the generated points: picks the sorted order
  switch (cfg.input) {
    case InputKind::kPlummer: r.input = "plummer"; dim = 3; break;
    case InputKind::kRandomBodies: r.input = "random_bodies"; dim = 3; break;
    case InputKind::kCovtype: r.input = "covtype"; break;
    case InputKind::kMnist: r.input = "mnist"; break;
    case InputKind::kUniform: r.input = "uniform"; break;
    case InputKind::kGeocity: r.input = "geocity"; dim = 2; break;
  }
  r.order = !cfg.sorted  ? PointOrder::kShuffled
            : dim <= 3   ? PointOrder::kMorton
                         : PointOrder::kTree;
  return r;
}

namespace {

VariantResult to_variant(const KernelStats& stats, const TimeBreakdown& time,
                         double avg_nodes, double sim_wall_ms) {
  VariantResult v;
  v.stats = stats;
  v.time = time;
  v.avg_nodes = avg_nodes;
  v.sim_wall_ms = sim_wall_ms;
  return v;
}

// Per-warp work expansion (Table 2): lockstep union size over the longest
// individual traversal in the warp (the non-lockstep completion bound).
Summary work_expansion(const std::vector<std::uint32_t>& per_point_visits,
                       const std::vector<std::uint32_t>& per_warp_pops,
                       int warp_size) {
  RunningStats rs;
  for (std::size_t w = 0; w < per_warp_pops.size(); ++w) {
    std::uint32_t longest = 0;
    std::size_t begin = w * static_cast<std::size_t>(warp_size);
    std::size_t end = std::min(per_point_visits.size(),
                               begin + static_cast<std::size_t>(warp_size));
    for (std::size_t i = begin; i < end; ++i)
      longest = std::max(longest, per_point_visits[i]);
    if (longest == 0) continue;
    rs.add(static_cast<double>(per_warp_pops[w]) / longest);
  }
  return rs.summary();
}

// Runs the CPU baselines and all five GPU variants for one kernel, filling
// the variant columns of `row`. `equal` compares two Result values.
template <TraversalKernel K, class Eq>
void run_all(BenchRow& row, const BenchConfig& cfg, const K& k,
             GpuAddressSpace& space, Eq&& equal) {
  // Copy-in/copy-out accounting (section 5.2): everything registered so
  // far is kernel input (tree + points); the stack arenas the executors
  // add below are device-internal and never cross the bus.
  row.upload_bytes = space.footprint_bytes();
  row.download_bytes =
      static_cast<std::uint64_t>(sizeof(typename K::Result)) * k.num_points();

  // CPU: the original recursive implementation, measured for real.
  auto cpu1 = run_cpu(k, CpuVariant::kRecursive, 1);
  int tmax = cfg.cpu_threads > 0 ? cfg.cpu_threads : hardware_threads();
  auto cpuN = run_cpu(k, CpuVariant::kRecursive, tmax);
  row.cpu_t1_ms = cpu1.wall_ms;
  row.cpu_tmax_ms = cpuN.wall_ms;
  row.cpu_threads_measured = tmax;
  row.cpu_visits = cpu1.total_visits;

  // Simulate the eight GPU variants. A rope-stack overflow (run_gpu_sim
  // throws) fails only that variant: its error string is recorded and the
  // remaining variants still produce measurements. Stackless variants are
  // pre-checked for eligibility (guided kernels have no canonical rope
  // order) and reported as skipped rather than attempted.
  std::array<std::vector<typename K::Result>, kNumVariants> gpu_results;
  std::vector<std::uint32_t> nolockstep_visits;
  std::vector<std::uint32_t> lockstep_pops;
  for (Variant v : kAllVariants) {
    if (!cfg.variants.contains(v)) {
      row.result(v) = VariantResult{};
      row.result(v).error =
          std::string("skipped: excluded by --variant filter (") +
          variant_name(v) + ")";
      continue;
    }
    const std::string why = kernel_variant_ineligible_reason(k, v);
    if (!why.empty()) {
      row.result(v) = VariantResult{};
      row.result(v).error = "skipped: " + why;
      continue;
    }
    try {
      GpuMode mode = GpuMode::from(v);
      mode.profile_samples = cfg.profile_samples;
      mode.profile_seed = cfg.profile_seed;
      obs::TraceSink* tsink = nullptr;
      if (cfg.chrome)
        tsink = &cfg.chrome->begin_launch(
            std::string(kernel_display_name<K>()) + "/" + variant_name(v));
      obs::ProfileSink psink;
      auto g = run_gpu_sim(k, space, cfg.device, mode, tsink,
                           cfg.profile ? &psink : nullptr);
      // Per-buffer counter tracks next to this launch's warp timeline.
      if (tsink) cfg.chrome->set_launch_memory(g.stats.memory);
      row.result(v) =
          to_variant(g.stats, g.time, g.avg_nodes(), g.sim_wall_ms);
      row.result(v).selection = g.selection;
      row.result(v).profile = std::move(g.profile);
      if (v == Variant::kAutoNolockstep)
        nolockstep_visits = std::move(g.per_point_visits);
      else if (v == Variant::kAutoLockstep)
        lockstep_pops = std::move(g.per_warp_pops);
      gpu_results[static_cast<std::size_t>(v)] = std::move(g.results);
    } catch (const std::runtime_error& e) {
      row.result(v) = VariantResult{};
      row.result(v).error = e.what();
    }
  }

  // Table 2 needs both autoropes variants; skip it if either overflowed.
  if (!nolockstep_visits.empty() && !lockstep_pops.empty())
    row.work_expansion = work_expansion(nolockstep_visits, lockstep_pops,
                                        cfg.device.warp_size);

  if (cfg.verify) {
    auto cpu_auto = run_cpu(k, CpuVariant::kAutoropes, 1);
    auto check = [&](const std::vector<typename K::Result>& got,
                     const char* what) {
      for (std::size_t i = 0; i < got.size(); ++i)
        if (!equal(cpu1.results[i], got[i]))
          throw std::runtime_error(std::string("variant mismatch (") + what +
                                   ") at point " + std::to_string(i));
    };
    check(cpu_auto.results, "cpu autoropes");
    for (Variant v : kAllVariants)
      if (row.result(v).ok())
        check(gpu_results[static_cast<std::size_t>(v)], variant_name(v));
  }
}

// Fold another timestep's measurements into the running row: times and
// visit counters add; per-point averages stay averages of the whole run;
// work expansion becomes the running mean over steps.
void accumulate(BenchRow& row, const BenchRow& step, int steps_so_far) {
  double w = 1.0 / steps_so_far;
  auto add_variant = [w](VariantResult& a, const VariantResult& b) {
    // One failed timestep poisons the variant's whole-run measurement.
    if (!b.ok() && a.ok()) a.error = b.error;
    if (!a.ok()) return;
    a.time.compute_ms += b.time.compute_ms;
    a.time.memory_ms += b.time.memory_ms;
    a.time.select_ms += b.time.select_ms;
    a.time.total_ms += b.time.total_ms;  // total traversal time, like the paper
    a.time.memory_bound = a.time.memory_ms > a.time.compute_ms;
    a.avg_nodes = a.avg_nodes * (1.0 - w) + b.avg_nodes * w;  // per step
    a.time.imbalance =
        a.time.imbalance * (1.0 - w) + b.time.imbalance * w;  // per step
    a.stats.merge(b.stats);
    a.sim_wall_ms += b.sim_wall_ms;
    if (b.selection) {
      if (!a.selection) {
        a.selection = b.selection;
      } else {
        // Samples and charged cycles add across timesteps; similarity
        // stays a per-sample mean; `chosen` and the predicted times keep
        // the first dispatch.
        const std::uint64_t total = a.selection->samples + b.selection->samples;
        if (total > 0) {
          const double wa = static_cast<double>(a.selection->samples);
          const double wb = static_cast<double>(b.selection->samples);
          a.selection->mean_similarity =
              (a.selection->mean_similarity * wa +
               b.selection->mean_similarity * wb) /
              static_cast<double>(total);
          a.selection->baseline_similarity =
              (a.selection->baseline_similarity * wa +
               b.selection->baseline_similarity * wb) /
              static_cast<double>(total);
        }
        a.selection->samples = total;
        a.selection->sampling_cycles += b.selection->sampling_cycles;
      }
    }
    if (b.profile) {
      if (!a.profile)
        a.profile = b.profile;
      else
        a.profile->merge(*b.profile);
    }
  };
  for (Variant v : kAllVariants) add_variant(row.result(v), step.result(v));
  row.cpu_t1_ms += step.cpu_t1_ms;
  row.cpu_tmax_ms += step.cpu_tmax_ms;
  row.cpu_visits += step.cpu_visits;
  row.upload_bytes += step.upload_bytes;  // tree re-uploaded per step
  row.download_bytes += step.download_bytes;
  row.launches += step.launches;  // each step is its own kernel launch
  row.work_expansion.mean =
      row.work_expansion.mean * (1.0 - w) + step.work_expansion.mean * w;
  row.work_expansion.stddev =
      row.work_expansion.stddev * (1.0 - w) + step.work_expansion.stddev * w;
}

bool nearly_equal(float a, float b, float tol) {
  if (a == b) return true;
  if (std::isinf(a) || std::isinf(b)) return a == b;
  float scale = std::max({1.0f, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace

BenchRow run_bench(const BenchConfig& cfg) {
  BenchRow row;
  row.config = cfg;
  GpuAddressSpace space;
  const KernelRequest req = kernel_request(cfg);

  switch (cfg.algo) {
    case Algo::kBH: {
      BodySet bodies = make_bodies(req);
      // The paper integrates several timesteps, rebuilding the octree each
      // step; traversal metrics accumulate across steps.
      int steps = std::max(1, cfg.bh_timesteps);
      for (int step = 0; step < steps; ++step) {
        GpuAddressSpace step_space;
        Octree tree = build_octree(bodies.pos, bodies.mass);
        BarnesHutKernel k(tree, bodies.pos, cfg.bh_theta, cfg.bh_eps2,
                          step == 0 ? space : step_space);
        BenchRow step_row;
        step_row.config = cfg;
        run_all(step_row, cfg, k, step == 0 ? space : step_space,
                [](const BhForce& a, const BhForce& b) {
                  return nearly_equal(a.ax, b.ax, 1e-4f) &&
                         nearly_equal(a.ay, b.ay, 1e-4f) &&
                         nearly_equal(a.az, b.az, 1e-4f);
                });
        if (step == 0) {
          row = step_row;
          row.config = cfg;
        } else {
          accumulate(row, step_row, step + 1);
        }
        if (step + 1 < steps) {
          // Advance with the verified CPU result (identical across
          // variants) so later steps traverse an evolved tree.
          auto cpu = run_cpu(k, CpuVariant::kAutoropes, 2);
          bh_integrate(bodies.pos, bodies.vel, cpu.results, cfg.bh_dt);
        }
      }
      break;
    }
    case Algo::kPC: {
      const auto cell = build_pc_bundle(req, space);
      run_all(row, cfg, *cell->k, space,
              [](std::uint32_t a, std::uint32_t b) { return a == b; });
      break;
    }
    case Algo::kKNN: {
      const auto cell = build_knn_bundle(req, space);
      run_all(row, cfg, *cell->k, space,
              [](const KnnResult& a, const KnnResult& b) {
                return nearly_equal(a.kth_d2, b.kth_d2, 1e-4f) &&
                       nearly_equal(a.sum_d2, b.sum_d2, 1e-3f);
              });
      break;
    }
    case Algo::kNN: {
      const auto cell = build_nn_bundle(req, space);
      run_all(row, cfg, *cell->k, space,
              [](const NnResult& a, const NnResult& b) {
                return nearly_equal(a.best_d2, b.best_d2, 1e-4f);
              });
      break;
    }
    case Algo::kVP: {
      const auto cell = build_vp_bundle(req, space);
      run_all(row, cfg, *cell->k, space,
              [](const VpResult& a, const VpResult& b) {
                return nearly_equal(a.best_d, b.best_d, 1e-4f);
              });
      break;
    }
  }
  return row;
}

std::unique_ptr<PreparedKernel> prepare_kernel(const BenchConfig& cfg) {
  register_bench_kernels();
  auto out = std::make_unique<PreparedKernel>();
  out->handle = KernelFactory::instance().make(
      kernel_name(cfg.algo), kernel_request(cfg), out->space);
  // Copy-in/copy-out accounting, as in run_all: everything registered so
  // far (tree + points) crosses the bus; the stack arena the launch
  // engine adds later is device-internal.
  out->upload_bytes = out->space.footprint_bytes();
  out->download_bytes = static_cast<std::uint64_t>(
      out->handle->result_stride() * out->handle->num_points());
  return out;
}

ShardingRunSummary run_sharding(const ShardingConfig& config) {
  if (config.items.empty())
    throw std::invalid_argument("run_sharding: no items to shard");
  ShardingRunSummary out;
  out.devices = std::max<std::size_t>(config.devices, 1);
  out.chunk_points = std::max<std::size_t>(config.chunk_points, 1);
  out.policy = config.policy;
  out.variant = config.variant;
  out.transfer = config.transfer;

  DeviceGroupConfig group;
  group.devices = out.devices;
  group.device = config.device;
  group.transfer = config.transfer;
  group.policy = config.policy;
  group.chunk_points = out.chunk_points;
  group.chrome = config.chrome;

  out.kernels.reserve(config.items.size());
  for (const BenchConfig& item : config.items) {
    std::unique_ptr<PreparedKernel> pl = prepare_kernel(item);
    LaunchSpec spec;
    spec.kernel = pl->handle;
    spec.space = &pl->space;
    spec.mode = GpuMode::from(config.variant);
    spec.mode.profile_samples = item.profile_samples;
    spec.mode.profile_seed = item.profile_seed;

    ShardedRun r =
        run_sharded(spec, pl->upload_bytes, pl->download_bytes, group);
    ShardingKernelReport rep;
    rep.kernel_name = r.merged.kernel_name.empty() ? pl->handle->name()
                                                   : r.merged.kernel_name;
    rep.n_points = r.merged.n_points;
    rep.n_chunks = r.merged.n_warps;
    rep.variant = r.merged.variant;
    rep.single_device_ms = r.single_device_ms;
    rep.makespan_ms = r.makespan_ms;
    rep.speedup = r.speedup;
    rep.devices = std::move(r.devices);
    rep.error = r.merged.error;
    out.kernels.push_back(std::move(rep));
  }
  return out;
}

std::vector<CpuSweepPoint> cpu_sweep(const BenchRow& row, bool lockstep,
                                     const std::vector<int>& thread_counts) {
  const VariantResult& v = row.result(lockstep ? Variant::kAutoLockstep
                                               : Variant::kAutoNolockstep);
  std::vector<CpuSweepPoint> out;
  out.reserve(thread_counts.size());
  for (int t : thread_counts) {
    CpuSweepPoint p;
    p.threads = t;
    p.cpu_ms = row.cpu_model.time_ms(row.cpu_t1_ms, t);
    p.ratio_vs_gpu = v.time.total_ms / p.cpu_ms;
    out.push_back(p);
  }
  return out;
}

}  // namespace tt
