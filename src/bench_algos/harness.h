// Shared experiment harness: builds a benchmark/input pair exactly the way
// the paper's evaluation does (generate -> order (sorted/unsorted) -> build
// tree -> run every variant), and returns the measurements behind Table 1,
// Table 2 and Figures 10/11.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/device_group.h"
#include "core/kernel_factory.h"
#include "core/serving.h"
#include "core/ir/callset_analysis.h"
#include "core/variant.h"
#include "cpu/scaling_model.h"
#include "obs/profile.h"
#include "simt/cost_model.h"
#include "simt/device_config.h"
#include "simt/kernel_stats.h"
#include "simt/transfer_model.h"
#include "util/stats.h"

namespace tt {

namespace obs {
class ChromeTraceCollector;  // obs/chrome_trace.h
}

enum class Algo { kBH, kPC, kKNN, kNN, kVP };
enum class InputKind {
  kPlummer,       // BH only
  kRandomBodies,  // BH only
  kCovtype,
  kMnist,
  kUniform,
  kGeocity,
};

std::string algo_name(Algo a);
std::string input_name(InputKind i);
// The paper's benchmark/input grid (BH x {plummer, random-bodies}; others x
// {covtype, mnist, uniform(=the paper's Random), geocity}).
std::vector<InputKind> inputs_for(Algo a);
// Static call-set analysis of the algorithm's IR description.
ir::AnalysisReport analysis_for(Algo a);

struct BenchConfig {
  Algo algo = Algo::kPC;
  InputKind input = InputKind::kUniform;
  std::size_t n = 8192;  // points (or bodies)
  bool sorted = true;
  std::uint64_t seed = 42;

  int dim = 7;                       // projected dimensionality
  int k = 8;                         // kNN
  double pc_target_neighbors = 32;   // sets the PC radius on scaled inputs
  float bh_theta = 0.5f;
  float bh_eps2 = 1e-4f;
  int bh_timesteps = 1;  // the paper integrates 5 steps; 1 keeps runs short
  float bh_dt = 0.0125f;
  int leaf_size = 8;                 // bucket kd-tree leaves

  int cpu_threads = 0;   // 0 => hardware_threads() for the measured run
  bool verify = true;    // cross-check all variants' results agree
  DeviceConfig device;

  // auto_select sampler knobs (the --profile-samples/--profile-seed CLI
  // flags): how many adjacent traversal pairs the section-4.4 profiler
  // draws per launch, and the deterministic seed it draws them with.
  std::size_t profile_samples = 32;
  std::uint64_t profile_seed = 1;

  // Which GPU variants run_bench simulates (the --variant CLI filter,
  // parsed by VariantSet::from_names). A disabled variant is reported
  // through VariantResult::error ("skipped: ...") with zeroed numbers,
  // like a failed one.
  VariantSet variants = VariantSet::all();

  // Cycle-attribution profiler (the --profile CLI flag): when set, every
  // variant's run carries an obs::ProfileSink and VariantResult::profile
  // is filled (BH accumulates it across timesteps via
  // obs::ProfileReport::merge).
  bool profile = false;
  // Chrome-trace export (the --chrome-trace CLI flag): when non-null,
  // every GPU launch opens a track in the collector (named
  // "<kernel>/<variant>") and runs with that track's TraceSink. The
  // collector is owned by the caller; the harness only appends launches.
  obs::ChromeTraceCollector* chrome = nullptr;
};

struct VariantResult {
  double avg_nodes = 0;     // the paper's "Avg. # Nodes" column
  KernelStats stats;
  TimeBreakdown time;       // modelled GPU time: the cost model's breakdown
  double sim_wall_ms = 0;
  // auto_select only: the launch-time decision record (exported as the
  // "selection" block of the RunReport JSON). BH accumulates it across
  // timesteps: samples and sampling_cycles sum, similarity averages, and
  // `chosen` and the predicted times keep the first timestep's dispatch.
  std::optional<SelectionInfo> selection;
  // Set when BenchConfig::profile was on: the variant's cycle-attribution
  // profile (obs/profile.h). BH merges it across timesteps, so the
  // attribution invariant (bucket sum == stats.instr_cycles) holds for
  // the whole accumulated run.
  std::optional<obs::ProfileReport> profile;
  // Empty on success. Set (e.g. "rope stack overflow ...") when this
  // variant's simulation failed; its numbers are then all zero while the
  // other variants of the row stay valid.
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

struct BenchRow {
  BenchConfig config;
  // GPU variants, indexed by Variant (see core/variant.h).
  std::array<VariantResult, kNumVariants> variants;
  [[nodiscard]] VariantResult& result(Variant v) {
    return variants[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const VariantResult& result(Variant v) const {
    return variants[static_cast<std::size_t>(v)];
  }
  // CPU measurements (real) and scaling model.
  double cpu_t1_ms = 0;            // measured, 1 thread
  double cpu_tmax_ms = 0;          // measured, cpu_threads threads
  int cpu_threads_measured = 1;
  std::uint64_t cpu_visits = 0;
  CpuScalingModel cpu_model;

  // Table 2: per-warp work expansion of the lockstep traversal.
  Summary work_expansion;

  // Section 5.2's copy-in/copy-out: bytes shipped to/from the device and
  // the modelled PCIe time (not part of the paper's traversal-time
  // columns, reported alongside for end-to-end judgement). `launches`
  // counts the kernel launches behind the accumulated bytes -- 1 for
  // single-shot rows, bh_timesteps for multi-timestep BH rows (each step
  // re-uploads the rebuilt octree and pays its own launch overhead).
  std::uint64_t upload_bytes = 0;
  std::uint64_t download_bytes = 0;
  int launches = 1;
  TransferModel transfer;
  [[nodiscard]] double transfer_ms() const {
    return transfer.round_trip_ms(upload_bytes, download_bytes, launches);
  }

  // Derived columns (Table 1).
  double speedup_vs_1(const VariantResult& v) const {
    return cpu_t1_ms / v.time.total_ms;
  }
  double speedup_vs_32(const VariantResult& v) const {
    return cpu_model.time_ms(cpu_t1_ms, 32) / v.time.total_ms;
  }
  // "Improv. vs Recurse": like-for-like autoropes vs recursive GPU.
  double improvement_vs_recursive(bool lockstep) const {
    const VariantResult& a = result(lockstep ? Variant::kAutoLockstep
                                             : Variant::kAutoNolockstep);
    const VariantResult& r = result(lockstep ? Variant::kRecLockstep
                                             : Variant::kRecNolockstep);
    return r.time.total_ms / a.time.total_ms - 1.0;
  }
};

// The KernelFactory spelling of one cell (bench_algos/register_kernels.h):
// the registered builder name ("bh", "pc", "knn", "nn", "vp") and the
// request that builds the cell's input, tree and kernel. The request holds
// section 4.4's sorted order -- Morton in <= 3 dimensions (BH's bodies,
// geocity), kd-tree leaf order otherwise -- or the shuffled order when
// !cfg.sorted.
[[nodiscard]] const char* kernel_name(Algo a);
[[nodiscard]] KernelRequest kernel_request(const BenchConfig& cfg);

// Run all variants for one benchmark/input/order cell. A variant whose
// simulation fails (rope-stack overflow) is reported through its
// VariantResult::error field instead of aborting the row, so the other
// variants' measurements survive. Throws on variant *result divergence*
// when config.verify is set (that is a correctness bug, not a capacity
// limit) and on invalid configurations.
BenchRow run_bench(const BenchConfig& config);

// ---------------------------------------------------------------------
// Prepared kernels: the unit bench/serving submits and run_sharding shards.
// ---------------------------------------------------------------------

// One prepared benchmark kernel, fully owned: the launch's address space
// plus a handle whose keep-alive parks the generated input, tree and
// kernel object so everything outlives the run. Built by KernelFactory
// from kernel_request(cfg) -- the builder whose typed bundle run_bench
// runs for the item's solo row (register_kernels.h). This is the unit
// bench/serving submits as a core QuerySet, and what run_sharding builds
// per item.
struct PreparedKernel {
  GpuAddressSpace space;
  std::shared_ptr<KernelHandle> handle;
  std::uint64_t upload_bytes = 0;    // tree + points crossing the bus
  std::uint64_t download_bytes = 0;  // result_stride * num_points back
};

// BH builds the initial octree only -- one timestep.
[[nodiscard]] std::unique_ptr<PreparedKernel> prepare_kernel(
    const BenchConfig& cfg);

// ---------------------------------------------------------------------
// Multi-device sharded runs (core/device_group.h behind the harness).
// ---------------------------------------------------------------------

// One sharded harness run: every item becomes one LaunchSpec (built
// exactly like its run_bench solo row) and each launch's point range is
// sharded across `devices` simulated devices with pipelined transfer
// overlap. Kernels run one after another (the group serves one launch at
// a time), so the pool's makespan is the summed per-kernel makespan.
struct ShardingConfig {
  std::vector<BenchConfig> items;
  // The composition every launch simulates; auto_select resolves once per
  // launch on the baseline run and the shards reuse that decision.
  Variant variant = Variant::kAutoSelect;
  BatchPolicy policy = BatchPolicy::kWorkStealing;
  std::size_t devices = 2;
  std::size_t chunk_points = 1024;  // pipelined upload granularity
  DeviceConfig device;              // each device of the homogeneous group
  TransferModel transfer;
  // Per-device Chrome tracks "dev<d>/<kernel>" (copy + compute overlap).
  obs::ChromeTraceCollector* chrome = nullptr;
};

// Build every item's kernel and shard it across the device group. The
// merged results are verified byte-identical to the single-device
// baseline inside run_sharded; a divergence (or a baseline failure)
// reports through the kernel's error field. Throws std::invalid_argument
// on an empty item list.
[[nodiscard]] ShardingRunSummary run_sharding(const ShardingConfig& config);

// Figure 10/11 series: CPU-performance-vs-GPU ratio for each thread count,
// normalized so GPU == 1 (values above 1 mean the CPU is faster).
struct CpuSweepPoint {
  int threads;
  double cpu_ms;         // modelled from measured t1
  double ratio_vs_gpu;   // gpu_ms / cpu_ms
};
std::vector<CpuSweepPoint> cpu_sweep(const BenchRow& row, bool lockstep,
                                     const std::vector<int>& thread_counts);

}  // namespace tt
