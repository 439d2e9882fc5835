// Shared plumbing for the paper-experiment binaries: CLI -> BenchConfig,
// algorithm-list parsing, and cell-size defaults per benchmark.
#pragma once

#include <array>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_algos/harness.h"
#include "core/variant.h"
#include "obs/chrome_trace.h"
#include "obs/run_report.h"
#include "util/cli.h"
#include "util/csv.h"

namespace tt::benchx {

inline std::vector<Algo> parse_algos(const std::string& spec) {
  if (spec == "all")
    return {Algo::kBH, Algo::kPC, Algo::kKNN, Algo::kNN, Algo::kVP};
  std::vector<Algo> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    std::string tok = spec.substr(pos, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - pos);
    if (tok == "bh")
      out.push_back(Algo::kBH);
    else if (tok == "pc")
      out.push_back(Algo::kPC);
    else if (tok == "knn")
      out.push_back(Algo::kKNN);
    else if (tok == "nn")
      out.push_back(Algo::kNN);
    else if (tok == "vp")
      out.push_back(Algo::kVP);
    else
      throw std::invalid_argument("unknown benchmark: " + tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// The --variant spec as a VariantSet ("all" or a comma-separated list of
// canonical names; VariantSet::from_names rejects unknown spellings,
// listing the valid ones in its error).
inline VariantSet parse_variant_filter(const std::string& spec) {
  return VariantSet::from_names(spec);
}

// True when --variant enables `v`. Binaries with per-variant rows use this
// to skip rows; run_bench-based binaries inherit the filter through
// BenchConfig::variants instead (see config_from).
inline bool variant_enabled(const Cli& cli, Variant v) {
  return parse_variant_filter(cli.get_string("variant")).contains(v);
}

// For experiments whose measurement inherently compares specific variants:
// validates the filter spelling and rejects a filter that excludes any of
// the variants the experiment cannot do without.
inline void require_variants(const Cli& cli,
                             std::initializer_list<Variant> needed) {
  for (Variant v : needed)
    if (!variant_enabled(cli, v))
      throw std::invalid_argument(
          std::string("this experiment compares across variants and needs ") +
          variant_name(v) + "; relax the --variant filter");
}

inline void add_common_flags(Cli& cli) {
  cli.add_string("benchmarks", "all",
                 "comma-separated subset of bh,pc,knn,nn,vp");
  cli.add_string("variant", "all",
                 "comma-separated GPU variants to simulate "
                 "(auto_lockstep,auto_nolockstep,rec_lockstep,"
                 "rec_nolockstep,auto_select,stackless_lockstep,"
                 "stackless_nolockstep,index_walk); excluded variants are "
                 "skipped");
  cli.add_int("points", 8192, "points per tree-benchmark input");
  cli.add_int("bodies", 16384, "bodies for Barnes-Hut");
  cli.add_int("seed", 42, "master RNG seed");
  cli.add_int("k", 8, "k for k-nearest-neighbor");
  cli.add_double("pc-neighbors", 32.0,
                 "target mean matches per query for the PC radius");
  cli.add_double("theta", 0.5, "Barnes-Hut opening angle");
  cli.add_int("bh-steps", 1,
              "Barnes-Hut timesteps (the paper integrates 5)");
  cli.add_flag("verify", false,
               "cross-check all variants' results agree (slower)");
  cli.add_int("profile-samples", 32,
              "auto_select: adjacent traversal pairs the section-4.4 "
              "sampler draws per launch (must be >= 1)");
  cli.add_int("profile-seed", 1,
              "auto_select: deterministic seed for the sampler");
  cli.add_flag("csv", false, "emit CSV instead of an aligned table");
  cli.add_flag("profile", false,
               "collect the cycle-attribution profiler (per-layer bucket "
               "split, divergence histogram, hot nodes) and embed it in "
               "the --json report's \"profile\" blocks");
  cli.add_string("chrome-trace", "",
                 "write every GPU launch's per-warp event stream as Chrome "
                 "trace-event JSON to this path (load in Perfetto / "
                 "chrome://tracing; one process track per launch)");
  cli.add_string("json", "",
                 "also write a treetrav.run_report JSON file to this path");
  cli.add_flag("json-volatile", false,
               "include measured wall-clock values in the --json report "
               "(breaks byte-identical output across runs)");
}

// --profile-samples, checked: the auto_select sampler needs at least one
// traversal pair to decide a dispatch.
inline std::size_t profile_samples(const Cli& cli) {
  const long long samples = cli.get_int("profile-samples");
  if (samples <= 0)
    throw std::invalid_argument(
        "--profile-samples must be >= 1: the auto_select sampler needs at "
        "least one traversal pair to decide a dispatch");
  return static_cast<std::size_t>(samples);
}

// RunReport pre-wired from the common flags: seed, the auto_select sampler
// knobs, volatile toggle and the device model every harness runs with
// (BenchConfig's default DeviceConfig).
inline obs::RunReport make_report(const Cli& cli,
                                  const std::string& generator) {
  obs::RunReport report(generator);
  report.set_seed(static_cast<std::uint64_t>(cli.get_int("seed")));
  report.set_profile_sampler(
      profile_samples(cli),
      static_cast<std::uint64_t>(cli.get_int("profile-seed")));
  report.set_include_volatile(cli.get_flag("json-volatile"));
  // --profile also unlocks the per-buffer "memory" attribution
  // blocks (attribution is always collected; export is opt-in).
  report.set_include_memory(cli.get_flag("profile"));
  report.set_device(DeviceConfig{});
  return report;
}

// The collector behind --chrome-trace: owns an obs::ChromeTraceCollector
// when the flag carries a path, a null collector() otherwise -- so harness
// wiring (BenchConfig::chrome = tracer.collector()) is unconditional.
class ChromeTrace {
 public:
  explicit ChromeTrace(const Cli& cli)
      : path_(cli.get_string("chrome-trace")),
        collector_(path_.empty()
                       ? nullptr
                       : std::make_unique<obs::ChromeTraceCollector>()) {}

  [[nodiscard]] obs::ChromeTraceCollector* collector() const {
    return collector_.get();
  }

  // Writes the merged trace when --chrome-trace=<path> was given. Returns
  // false (after printing the reason to stderr) on I/O failure.
  [[nodiscard]] bool write() const {
    if (!collector_) return true;
    std::string err;
    if (!collector_->write_file(path_, &err)) {
      std::cerr << "chrome trace: " << err << "\n";
      return false;
    }
    std::cerr << "# wrote " << path_ << " (" << collector_->total_events()
              << " trace events, " << collector_->n_launches()
              << " launches)\n";
    return true;
  }

 private:
  std::string path_;
  std::unique_ptr<obs::ChromeTraceCollector> collector_;
};

// Writes the report when --json=<path> was given. Returns false (after
// printing the reason to stderr) on I/O failure so main can exit nonzero.
inline bool maybe_write_report(const Cli& cli, const obs::RunReport& report) {
  const std::string& path = cli.get_string("json");
  if (path.empty()) return true;
  std::string err;
  if (!report.write_file(path, &err)) {
    std::cerr << "json report: " << err << "\n";
    return false;
  }
  std::cerr << "# wrote " << path << "\n";
  return true;
}

inline BenchConfig config_from(const Cli& cli, Algo a, InputKind in,
                               bool sorted,
                               obs::ChromeTraceCollector* chrome = nullptr) {
  BenchConfig c;
  c.algo = a;
  c.input = in;
  c.n = static_cast<std::size_t>(a == Algo::kBH ? cli.get_int("bodies")
                                                : cli.get_int("points"));
  c.sorted = sorted;
  c.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  c.k = static_cast<int>(cli.get_int("k"));
  c.pc_target_neighbors = cli.get_double("pc-neighbors");
  c.bh_theta = static_cast<float>(cli.get_double("theta"));
  c.bh_timesteps = static_cast<int>(cli.get_int("bh-steps"));
  c.verify = cli.get_flag("verify");
  c.profile_samples = profile_samples(cli);
  c.profile_seed = static_cast<std::uint64_t>(cli.get_int("profile-seed"));
  c.variants = parse_variant_filter(cli.get_string("variant"));
  c.profile = cli.get_flag("profile");
  c.chrome = chrome;
  return c;
}

inline void emit(const Table& table, bool csv) {
  if (csv)
    table.write_csv(std::cout);
  else
    table.write_aligned(std::cout);
}

// Shared main() scaffold: parse the flags (returning 0 when --help printed
// usage), reject a bad --profile-samples before any work (make_report
// records it even in binaries that never sample), run `body`, and report
// any exception as "<name>: <what>" with exit code 1. One copy of the
// parse + try/catch every experiment binary used to hand-roll; unknown
// flags self-diagnose through Cli's list-the-valid-flags error.
template <class Body>
int run_main(Cli& cli, int argc, const char* const* argv,
             const std::string& name, Body&& body) {
  try {
    if (!cli.parse(argc, argv)) return 0;
    (void)profile_samples(cli);
    return body();
  } catch (const std::exception& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace tt::benchx
