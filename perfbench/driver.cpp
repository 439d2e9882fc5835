// The benchmark driver. One invocation runs one workload:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--out-dir <dir>] [--derive-serving 1]
//
// Every run first checks that the workload is deterministic (twice with
// two OpenMP threads and once with one, at a small n). An untraced run
// (--trace 0) then repeats a few fresh set-ups and a pass on the last of
// them until --seconds have passed, and reports the end-to-end metrics:
// host medians over the repetitions, scaled to a reference machine speed,
// and modelled numbers, which must repeat exactly. A traced run
// (--trace 1) makes one untraced pass, then repeats a traced pass, the
// slot pass, the observability reruns and the SIMT probes until --seconds
// have passed, and reports the per-layer metrics (host numbers as medians
// over the repetitions); it writes its spans to --out-dir.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics (name -> value; units live in BENCHMARK.json) and record
// (machine and run). --derive-serving 1 instead prints what the frozen
// serving constants were derived from (README.md "Serving constants").
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <omp.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "pipeline.h"

namespace {

using perfbench::Record;

// The OpenMP team the benchmark runs with, whatever the environment says:
// half of the 4-core machine the benchmark was sized on.
constexpr int kTeam = 2;
// Fresh set-ups before each pass of an untraced run; the pass runs on the
// last. setup_s sums, over the cells, the median of each cell's
// KernelFactory::make time over every set-up of the run. Spread over the
// whole run, the set-ups see the same machine as the passes do.
constexpr int kSetupsPerPass = 6;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string out_dir = ".";
  bool derive = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have[1] = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have[2] = true;
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
      have[3] = true;
      if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace takes 0 or 1");
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--derive-serving") {
      a.derive = v == "1";
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  for (bool h : have)
    if (!h)
      throw std::invalid_argument(
          "usage: perfbench_driver --workload <name> --seed <n> --seconds "
          "<s> --trace <0|1> [--out-dir <dir>] [--derive-serving 1]");
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n == 0) return 0;
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// ---------------------------------------------------------------------
// Machine speed. On the shared 4-core machine the benchmark was sized on,
// one run of one seed took 2.0 s and, ten minutes later, 2.7 s, with every
// stage of the program, set-up included, moving together. So run_s and
// setup_s are reported at a reference speed: their wall times are scaled
// by kCalibrationRefS over the run's median time of a fixed loop that
// belongs to the benchmark, not to the program, timed on every thread of
// the team before and after each pass. A change to the program moves the
// scaled times exactly as much as the wall times.
// ---------------------------------------------------------------------

// The loop's time at the reference speed: the unit of the scaled times.
constexpr double kCalibrationRefS = 0.045;
constexpr int kCalibrationIters = 10'000'000;

// Dependent integer hashing with a log/sqrt/cos draw every 16 steps, a mix
// like the simulator's and the generators'.
double calibration_loop() {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  double acc = 0, x = 0.5;
  for (int i = 0; i < kCalibrationIters; ++i) {
    h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull + static_cast<std::uint64_t>(i);
    if ((i & 15) == 0) {
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53 + 1e-12;
      acc += std::sqrt(-2 * std::log(u)) * std::cos(6.283185307179586 * x);
      x = u;
    }
  }
  return acc + static_cast<double>(h & 1);
}

// The loop's wall time, the mean over the team's threads.
double calibration_s() {
  double total = 0, sink = 0;
#pragma omp parallel reduction(+ : total, sink)
  {
    const double t0 = now_s();
    sink += calibration_loop();
    total += now_s() - t0;
  }
  volatile double keep = sink;
  (void)keep;
  return total / omp_get_max_threads();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Outcome {
  Record metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> record;

  void fail(std::string msg) {
    ++failed;
    if (failures.size() < 16) failures.push_back(std::move(msg));
  }
  void absorb(const perfbench::PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& f : p.failures)
      if (failures.size() < 16) failures.push_back(f);
  }
};

// First difference between two fingerprints, or "" when identical.
std::string fingerprint_diff(
    const std::vector<std::pair<std::string, double>>& a,
    const std::vector<std::pair<std::string, double>>& b) {
  if (a.size() != b.size())
    return "fingerprint sizes differ (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + ")";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return a[i].first + ": " + num(a[i].second) + " vs " + b[i].first +
             ": " + num(b[i].second);
  return "";
}

// The determinism check: at small n, the pass twice with kTeam threads
// and once with one thread must give identical modelled numbers, counts
// and result hashes.
void determinism_check(const perfbench::WorkloadDef& w, std::uint64_t seed,
                       const tt::DeviceConfig& dev, Outcome& out) {
  const perfbench::WorkloadDef small = perfbench::shrink_for_check(w);
  std::vector<std::pair<std::string, double>> first;
  for (int team : {kTeam, kTeam, 1}) {
    omp_set_num_threads(team);
    std::vector<perfbench::Cell> cells =
        perfbench::set_up(small, seed, nullptr, nullptr);
    perfbench::PassOptions opt;
    opt.device = dev;
    const perfbench::PassResult p = perfbench::run_pass(cells, small, seed, opt);
    for (const std::string& f : p.failures)
      out.fail("determinism check pass: " + f);
    if (first.empty()) {
      first = p.fingerprint;
      continue;
    }
    const std::string d = fingerprint_diff(first, p.fingerprint);
    if (!d.empty())
      out.fail("not deterministic with " + std::to_string(team) +
               " thread(s): " + d);
  }
  omp_set_num_threads(kTeam);
}

// Sum over positions of the median over rows: each call's (or cell's)
// median over the repetitions, so a spike in one repetition of one call
// does not move the total.
double sum_of_medians(const std::vector<std::vector<double>>& rows) {
  double total = 0;
  for (std::size_t j = 0; !rows.empty() && j < rows.front().size(); ++j) {
    std::vector<double> col;
    for (const auto& r : rows)
      if (j < r.size()) col.push_back(r[j]);
    total += median(col);
  }
  return total;
}

void untraced_run(const perfbench::WorkloadDef& w, const Args& a,
                  const tt::DeviceConfig& dev, Outcome& out) {
  const double t_begin = now_s();
  perfbench::PassOptions opt;
  opt.device = dev;
  std::vector<std::vector<double>> make_s;
  std::vector<std::vector<double>> call_s;
  std::vector<std::pair<std::string, double>> first;
  std::vector<double> calib_s;
  Record modelled;
  double lane_visits = 0, rss_mib = 0, last = 0;
  do {
    const double t0 = now_s();
    calib_s.push_back(calibration_s());
    std::vector<perfbench::Cell> cells;
    for (int r = 0; r < kSetupsPerPass; ++r) {
      cells.clear();  // a fresh set-up each time, as a user pays it
      cells = perfbench::set_up(w, a.seed, nullptr, nullptr);
      make_s.emplace_back();
      for (const perfbench::Cell& c : cells) make_s.back().push_back(c.make_s);
    }
    perfbench::PassResult p = perfbench::run_pass(cells, w, a.seed, opt);
    calib_s.push_back(calibration_s());
    last = now_s() - t0;
    call_s.push_back(p.call_s);
    out.absorb(p);
    if (first.empty()) {
      first = p.fingerprint;
      modelled = p.modelled;
      lane_visits = p.counts["launch.lane_visits"];
      // What one set-up and one pass need; later passes only add
      // allocator fragmentation, and their number depends on speed.
      rss_mib = peak_rss_mib();
    } else {
      const std::string d = fingerprint_diff(first, p.fingerprint);
      if (!d.empty()) out.fail("pass " + std::to_string(call_s.size()) +
                               " did not repeat the first: " + d);
    }
  } while (now_s() - t_begin + last <= a.seconds);

  const double wall_setup_s = sum_of_medians(make_s);
  const double wall_run_s = sum_of_medians(call_s);
  const double speed = kCalibrationRefS / median(calib_s);
  out.metrics = modelled;
  out.metrics["setup_s"] = wall_setup_s * speed;
  out.metrics["run_s"] = wall_run_s * speed;
  out.metrics["peak_rss_mb"] = rss_mib;
  out.record.emplace_back("wall_setup_s", num(wall_setup_s));
  out.record.emplace_back("wall_run_s", num(wall_run_s));
  out.record.emplace_back("calibration_s", num(median(calib_s)));
  out.record.emplace_back("setup_reps", std::to_string(make_s.size()));
  out.record.emplace_back("passes", std::to_string(call_s.size()));
  std::string all;
  for (const auto& calls : call_s) {
    double sum = 0;
    for (double c : calls) sum += c;
    if (!all.empty()) all += ' ';
    all += num(sum);
  }
  out.record.emplace_back("pass_s", all);
  out.record.emplace_back("lane_visits", num(lane_visits));
}

void traced_run(const perfbench::WorkloadDef& w, const Args& a,
                const tt::DeviceConfig& dev, Outcome& out) {
  perfbench::PassOptions plain;
  plain.device = dev;
  perfbench::SpanLog log;
  perfbench::PassOptions traced = plain;
  traced.log = &log;

  perfbench::SetupTimes times;
  std::vector<perfbench::Cell> cells;
  {
    perfbench::SpanScope s(&log, "set_up");
    cells = perfbench::set_up(w, a.seed, &log, &times);
  }
  // The untraced pass first: every traced pass's counts must equal it.
  const double t_begin = now_s();
  const perfbench::PassResult base = perfbench::run_pass(cells, w, a.seed, plain);
  out.absorb(base);
  // Traced iterations until --seconds have passed; each host number is
  // the median over the iterations.
  std::vector<Record> hosts;
  Record counts;
  double last = 0;
  do {
    const double t0 = now_s();
    perfbench::PassResult p;
    {
      perfbench::SpanScope s(&log, "pass", hosts.size());
      p = perfbench::run_pass(cells, w, a.seed, traced);
    }
    out.absorb(p);
    const std::string d = fingerprint_diff(base.fingerprint, p.fingerprint);
    if (!d.empty())
      out.fail("traced pass differs from the untraced pass: " + d);
    Record host = p.host;
    for (const std::string& m : perfbench::slot_pass(cells, p, traced, host))
      out.fail(m);
    for (const std::string& m : perfbench::obs_overhead(cells, p, traced, host))
      out.fail(m);
    {
      perfbench::SpanScope s(&log, "simt_probes");
      perfbench::simt_probes(dev, a.seed, host);
    }
    hosts.push_back(std::move(host));
    counts = p.counts;
    last = now_s() - t0;
  } while (now_s() - t_begin + last <= a.seconds);

  out.metrics = counts;
  for (const auto& [k, v] : hosts.front()) {
    std::vector<double> xs;
    for (const Record& h : hosts) xs.push_back(h.at(k));
    out.metrics[k] = median(xs);
  }
  out.metrics["data.generate_s"] = times.generate_s;
  out.metrics["data.order_s"] = times.order_s;
  out.metrics["spatial.build_s"] = times.build_s;
  out.record.emplace_back("traced_iterations", std::to_string(hosts.size()));

  const std::string path = a.out_dir + "/spans-" + w.name + "-" +
                           std::to_string(a.seed) + ".csv";
  log.write_csv(path);
  out.record.emplace_back("spans", path);
  std::vector<std::pair<double, std::string>> self;
  for (const auto& [name, ns] : log.self_ns_by_name()) self.push_back({ns, name});
  std::sort(self.rbegin(), self.rend());
  std::cerr << "perfbench: self time by span (" << log.spans().size()
            << " spans)\n";
  for (const auto& [ns, name] : self)
    std::fprintf(stderr, "  %-28s %10.3f ms\n", name.c_str(), ns / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  perfbench::WorkloadDef w;
  try {
    a = parse(argc, argv);
    w = perfbench::workload_by_name(a.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  omp_set_num_threads(kTeam);
  const tt::DeviceConfig dev;
  if (a.derive) {
    std::vector<perfbench::Cell> cells =
        perfbench::set_up(w, a.seed, nullptr, nullptr);
    perfbench::derive_serving(cells, w, a.seed, dev);
    return 0;
  }
  Outcome out;
  try {
    const double t0 = now_s();
    determinism_check(w, a.seed, dev, out);
    out.record.emplace_back("check_s", num(now_s() - t0));
    if (a.trace)
      traced_run(w, a, dev, out);
    else
      untraced_run(w, a, dev, out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 3;
  }
  for (const auto& [k, v] : out.metrics)
    if (!std::isfinite(v)) {
      out.fail("metric " + k + " is not finite");
      out.metrics[k] = 0;
    }

  out.record.emplace_back("workload", w.name);
  out.record.emplace_back("seed", std::to_string(a.seed));
  out.record.emplace_back("n", std::to_string(w.n));
  out.record.emplace_back("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  out.record.emplace_back("cpu_model", cpu_model());
  out.record.emplace_back("omp_team", std::to_string(omp_get_max_threads()));
  out.record.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  out.record.emplace_back("trace", std::to_string(a.trace));

  for (const std::string& f : out.failures)
    std::cerr << "perfbench: FAILED: " << f << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool firstm = true;
  for (const auto& [k, v] : out.metrics) {
    js << (firstm ? "" : ", ") << "\"" << k << "\": " << num(v);
    firstm = false;
  }
  js << "}, \"record\": {";
  bool firstr = true;
  for (const auto& [k, v] : out.record) {
    js << (firstr ? "" : ", ") << "\"" << k << "\": \"" << json_escape(v)
       << "\"";
    firstr = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return out.failed == 0 ? 0 : 1;
}
