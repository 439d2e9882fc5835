// RunReport: schema-versioned JSON export of a benchmark run.
//
// A report bundles everything needed to interpret (and re-plot) a run
// without the binary that produced it: the device model, every BenchRow
// with all variants' counters and modelled time breakdowns, and the
// emitted human tables. Each number appears once, in the block that owns
// it; nothing is copied into a second, flattened surface. Reports are
// deterministic -- measured wall-clock values (cpu_t1_ms, sim_wall_ms and
// everything derived from them) are excluded unless `include_volatile` is
// set -- so re-running the same binary with the same flags produces a
// byte-identical file. Schema changes bump kRunReportSchema.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "bench_algos/harness.h"
#include "core/device_group.h"
#include "util/csv.h"

namespace tt::obs {

// The document, top to bottom:
//   schema, generator, git_sha, seed, profile_samples, profile_seed,
//     include_volatile, device -- what produced the run, the auto_select
//     sampler knobs, and the DeviceConfig the cost model charged.
//   rows -- one object per BenchRow (table1 and the other grid binaries):
//     the config; "variants", one object per kAllVariants entry with
//     ok/error, avg_nodes, stats and time (total_ms = select_ms
//     + max(compute_ms, memory_ms); select_ms is the auto_select
//     sampler's serial prologue and 0 on every other variant), the
//     auto_select launch decision as "selection" (both compositions'
//     predicted times, the chosen one, the similarity diagnostics and the
//     sampling launch's cycles), and under --profile the
//     obs/profile.h cycle attribution ("profile") and the
//     simt/memory_attr.h per-buffer traffic table ("memory"); the CPU
//     scaling model; work_expansion; and the transfer round trip with its
//     launch count.
//   serving -- bench/serving only: one open-loop ServingSession run
//     (arrival scenario, latency and queue-delay percentiles, queue
//     gauges, per-drain records with their schedule and amortized-vs-solo
//     transfer, the wave-size sweep).
//   devices -- bench/sharding only: one multi-device sharded run
//     (per-kernel single-device time vs makespan, per-device partition and
//     copy/compute overlap, the devices x chunk-size sweep).
//   fusion -- bench/fusion only: fused kernels against their sequential
//     baselines per pair and variant.
//   tables -- the human tables the binary printed; tables whose cells
//     embed wall-clock values only under include_volatile.
// tools/json_validate accepts only this tag, re-derives every block's
// invariants, and with --golden compares two whole reports with only
// git_sha normalized.
inline constexpr const char* kRunReportSchema = "treetrav.run_report/v15";

// One (fused pair, variant) measurement from bench/fusion: the fused
// kernel's run next to its sequential baseline -- the same constituents
// run back to back under the same variant, counters summed. The cycle
// savings are derived from the two stats' bucket splits.
struct FusionVariantRow {
  Variant variant = Variant::kAutoNolockstep;
  bool ok = true;
  std::string error;            // the canonical ineligibility reason
  bool byte_identical = false;  // fused Result{a,b} == the solo results
  KernelStats fused;
  TimeBreakdown fused_time;
  KernelStats sequential;
  TimeBreakdown sequential_time;

  [[nodiscard]] double bucket_saved(CycleBucket b) const {
    const auto i = static_cast<std::size_t>(b);
    return sequential.cycle_buckets[i] - fused.cycle_buckets[i];
  }
  [[nodiscard]] double visit_cycles_saved() const {
    return bucket_saved(CycleBucket::kVisit);
  }
  [[nodiscard]] double mem_stall_cycles_saved() const {
    return bucket_saved(CycleBucket::kMemStall);
  }
};

struct FusionPairReport {
  std::string fused_name;   // e.g. "fused(rope_knn+rope_nn)"
  std::string first_name;   // constituent A
  std::string second_name;  // constituent B
  std::uint64_t n_points = 0;
  std::vector<FusionVariantRow> variants;
};

struct FusionRunSummary {
  std::vector<FusionPairReport> pairs;
};

class RunReport {
 public:
  // `generator` names the producing binary ("table1", "ablation_ropes"...).
  explicit RunReport(std::string generator);

  void set_seed(std::uint64_t seed) { seed_ = seed; }
  // The auto_select sampler knobs every row and run of the report was
  // drawn with (--profile-samples / --profile-seed): they move
  // auto_select's time and serving's latencies without appearing in any
  // row's config.
  void set_profile_sampler(std::uint64_t samples, std::uint64_t seed) {
    profile_samples_ = samples;
    profile_seed_ = seed;
  }
  void set_device(const DeviceConfig& device) { device_ = device; }
  // Include measured wall-clock values (breaks byte-identity across runs).
  void set_include_volatile(bool v) { include_volatile_ = v; }
  // Emit each variant's "memory" attribution block. Off by default:
  // attribution is always collected, but the block is only exported for
  // --profile runs, like the "profile" block.
  void set_include_memory(bool v) { include_memory_ = v; }

  void add_row(const BenchRow& row) { rows_.push_back(row); }
  // Attach an open-loop serving run (core/serving.h); at most one per
  // report (a later call replaces the earlier block).
  void set_serving(const ServingRunSummary& serving) { serving_ = serving; }
  // Attach a multi-device sharded run (core/device_group.h); at most one
  // per report (a later call replaces the earlier block).
  void set_sharding(const ShardingRunSummary& sharding) {
    sharding_ = sharding;
  }
  // Attach a fused-vs-sequential comparison (core/kernel_compose.h); at
  // most one per report (a later call replaces the earlier block).
  void set_fusion(const FusionRunSummary& fusion) { fusion_ = fusion; }
  // Tables whose cells embed measured wall-clock values (e.g. table1's
  // speedup-vs-CPU columns) must pass volatile_data = true; they are then
  // only emitted when include_volatile is set, keeping the default report
  // byte-identical across runs.
  void add_table(const std::string& name, const Table& table,
                 bool volatile_data = false);

  [[nodiscard]] std::size_t n_rows() const { return rows_.size(); }

  void write(std::ostream& os) const;
  // Convenience: serialize to a string (used by tests).
  [[nodiscard]] std::string to_string() const;
  // Returns false and fills *err (if non-null) when the file cannot be
  // written; never throws.
  bool write_file(const std::string& path, std::string* err = nullptr) const;

 private:
  std::string generator_;
  std::optional<std::uint64_t> seed_;
  std::optional<std::uint64_t> profile_samples_;
  std::optional<std::uint64_t> profile_seed_;
  std::optional<DeviceConfig> device_;
  bool include_volatile_ = false;
  bool include_memory_ = false;
  std::vector<BenchRow> rows_;
  std::optional<ServingRunSummary> serving_;
  std::optional<ShardingRunSummary> sharding_;
  std::optional<FusionRunSummary> fusion_;
  struct NamedTable {
    std::string name;
    Table table;
    bool volatile_data;
  };
  std::vector<NamedTable> tables_;
};

}  // namespace tt::obs
