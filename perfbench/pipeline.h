// The benchmark's workloads and the one pipeline every workload runs:
// set-up through KernelFactory::make, then a pass of solo launches
// (run_launch_pool), sharded launches (run_sharded) and open-loop serving
// sessions (ServingSession). See README.md for what each number means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel_factory.h"
#include "simt/device_config.h"
#include "simt/kernel_stats.h"
#include "simt/transfer_model.h"

namespace perfbench {

// Serving constants of one workload, frozen at the commit that added the
// benchmark (README.md "Serving constants" says how they were derived).
// They are never re-probed: a re-probed rate would move with the code.
struct ServeConstants {
  double nominal_qps = 0;
  std::vector<double> ladder_qps;  // ascending
  double p99_limit_ms = 0;
  std::size_t nominal_queries = 0;  // queries in the nominal-rate session
  std::size_t rung_queries = 0;     // queries per ladder rung
};

// One (kernel, input, order) combination.
struct CellDef {
  std::string kernel;  // KernelFactory name
  std::string input;   // KernelRequest::input
  bool shuffled = false;
};

struct WorkloadDef {
  std::string name;
  std::vector<CellDef> cells;
  std::size_t n = 0;  // points (bodies for bh) per kernel
  ServeConstants serve;
};

// The three workloads; throws std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadDef workload_by_name(const std::string& name);

// The same workload shrunk for the determinism check: small n and short
// serving traces, same cells and ladder.
[[nodiscard]] WorkloadDef shrink_for_check(WorkloadDef w);

// One built kernel with its own address space.
struct Cell {
  CellDef def;
  std::unique_ptr<tt::GpuAddressSpace> space;
  std::shared_ptr<tt::KernelHandle> handle;
  std::uint64_t upload_bytes = 0;    // tree + points, as registered by make
  std::uint64_t download_bytes = 0;  // result bytes
  double make_s = 0;                 // wall time of KernelFactory::make
};

// ---------------------------------------------------------------------
// Spans (traced runs only): name, start, end, parent, id. Kept in memory
// and written at exit. Recorded from the benchmark's thread, except the
// slot spans, which the slot pass collects per slot and adds afterwards.
// ---------------------------------------------------------------------
struct Span {
  const char* name = "";  // a string literal
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  double t0_ns = 0;
  double t1_ns = 0;
};

class SpanLog {
 public:
  SpanLog();
  [[nodiscard]] double now_ns() const;
  std::size_t open(const char* name, std::uint64_t id = 0);
  void close(std::size_t index);
  // A finished span under the innermost open span.
  void add(const char* name, std::uint64_t id, double t0_ns, double t1_ns);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Self time per span name: span time minus the time its children cover.
  [[nodiscard]] std::map<std::string, double> self_ns_by_name() const;
  void write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  double origin_ns_ = 0;
};

// RAII span; a null log makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint64_t id = 0)
      : log_(log), index_(log ? log->open(name, id) : 0) {}
  ~SpanScope() {
    if (log_) log_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

// ---------------------------------------------------------------------
// Set-up and the pass.
// ---------------------------------------------------------------------

// KernelFactory::make for every cell. With a span log, also times the
// data and spatial functions make calls, on the same request.
struct SetupTimes {
  double generate_s = 0;
  double order_s = 0;
  double build_s = 0;
};
[[nodiscard]] std::vector<Cell> set_up(const WorkloadDef& w,
                                       std::uint64_t seed, SpanLog* log,
                                       SetupTimes* times);

// Named numbers; ordered so two records compare and print stably.
using Record = std::map<std::string, double>;

// One solo launch, kept for the traced run's slot pass.
struct LaunchLog {
  std::size_t cell = 0;
  tt::Variant variant = tt::Variant::kAutoNolockstep;
  tt::Variant executed = tt::Variant::kAutoNolockstep;
  double sampling_cycles = 0;
  double wall_s = 0;
  double sim_wall_s = 0;  // LaunchPool::sim_wall_ms, the parallel slot loop
  tt::KernelStats stats;
};

struct PassResult {
  Record modelled;  // end-to-end modelled metrics (auto_ms, ...)
  Record counts;    // per-layer counts and modelled per-layer numbers
  Record host;      // per-layer host numbers (traced runs only)
  // Wall time of every program call, in the pass's fixed call order.
  std::vector<double> call_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::vector<LaunchLog> launches;
  // Exact fingerprint of every modelled number and count of the pass.
  std::vector<std::pair<std::string, double>> fingerprint;
};

struct PassOptions {
  SpanLog* log = nullptr;  // traced run when set
  tt::DeviceConfig device;
};

[[nodiscard]] PassResult run_pass(std::vector<Cell>& cells,
                                  const WorkloadDef& w, std::uint64_t seed,
                                  const PassOptions& opt);

// Traced runs only: re-run every solo launch as a slot pass (prepare, then
// run_slot under run_warps, one span per slot) and require its merged
// KernelStats to equal the pass's exactly. Adds launch.slot_us_* and
// launch.parallel_efficiency (slot time over threads x slot-pass wall
// time) to `host`. Returns the mismatches.
[[nodiscard]] std::vector<std::string> slot_pass(
    std::vector<Cell>& cells, const PassResult& pass, const PassOptions& opt,
    Record& host);

// Traced runs only: rerun each cell's auto_lockstep launch with no sink,
// a ProfileSink and a TraceSink; adds obs.profile_overhead,
// obs.trace_overhead and bench.span_overhead (the traced pass's spanned
// run of the same launches over the sink-less rerun). Returns launches
// whose KernelStats a sink changed.
[[nodiscard]] std::vector<std::string> obs_overhead(
    std::vector<Cell>& cells, const PassResult& pass, const PassOptions& opt,
    Record& host);

// Prints what README.md's serving constants were derived from: each pool
// entry's service time on an idle device and p99 over a fine rate scan.
void derive_serving(std::vector<Cell>& cells, const WorkloadDef& w,
                    std::uint64_t seed, const tt::DeviceConfig& dev);

// simt.commit_ns.{coalesced,scattered}: WarpMemory lane_load + commit on
// a field-annotated buffer with L2 on.
void simt_probes(const tt::DeviceConfig& cfg, std::uint64_t seed,
                 Record& host);

}  // namespace perfbench
