#include "pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>

#include <omp.h>

#include "bench_algos/knn/knn.h"
#include "bench_algos/register_kernels.h"
#include "core/device_group.h"
#include "core/serving.h"
#include "data/generators.h"
#include "simt/executor.h"
#include "spatial/kdtree.h"
#include "spatial/octree.h"
#include "spatial/vptree.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

using tt::Variant;

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

namespace {

// Table 1 cells of the two grids: the five paper kernels on their
// canonical inputs, plus pc on the 2-d geocity input (load imbalance) and
// the fused rope kNN + NN pair (shared node loads).
std::vector<CellDef> grid_cells(bool shuffled) {
  return {{"bh", "plummer", shuffled},    {"pc", "covtype", shuffled},
          {"pc", "geocity", shuffled},    {"knn", "mnist", shuffled},
          {"nn", "uniform", shuffled},    {"vp", "covtype", shuffled},
          {"fused_knn_nn", "covtype", shuffled}};
}

// The serving pool: the five Table-1 kernels in both orders.
std::vector<CellDef> serve_cells() {
  std::vector<CellDef> out;
  for (bool shuffled : {false, true})
    for (const auto& [k, in] :
         std::vector<std::pair<const char*, const char*>>{{"bh", "plummer"},
                                                          {"pc", "covtype"},
                                                          {"knn", "mnist"},
                                                          {"nn", "uniform"},
                                                          {"vp", "covtype"}})
      out.push_back({k, in, shuffled});
  return out;
}

// A geometric rate ladder: `rungs` rates from `lo`, each `step` times the
// previous one.
std::vector<double> ladder(double lo, double step, int rungs) {
  std::vector<double> out;
  double r = lo;
  for (int i = 0; i < rungs; ++i, r *= step) out.push_back(std::round(r));
  return out;
}

std::vector<std::string> workload_names() {
  return {"grid_sorted", "grid_shuffled", "serve_mixed"};
}

}  // namespace

WorkloadDef workload_by_name(const std::string& name) {
  // Serving constants: see README.md "Serving constants" for the probe
  // that produced them. Rates are queries per modelled second.
  WorkloadDef w;
  w.name = name;
  if (name == "grid_sorted") {
    w.cells = grid_cells(false);
    w.n = 1024;
    w.serve = {2250, ladder(1123, 1.03, 95), 3.96, 50000, 50000};
  } else if (name == "grid_shuffled") {
    w.cells = grid_cells(true);
    w.n = 1024;
    w.serve = {2000, ladder(999, 1.03, 95), 4.25, 50000, 50000};
  } else if (name == "serve_mixed") {
    w.cells = serve_cells();
    w.n = 512;
    w.serve = {2650, ladder(1326, 1.03, 95), 3.16, 200000, 100000};
  } else {
    std::string valid;
    for (const std::string& v : workload_names()) {
      if (!valid.empty()) valid += ", ";
      valid += v;
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (valid: " + valid + ")");
  }
  return w;
}

WorkloadDef shrink_for_check(WorkloadDef w) {
  w.n = 256;
  w.serve.nominal_queries = 2000;
  w.serve.rung_queries = 500;
  return w;
}

namespace {

// The harness's sorted order (section 4.4): Morton for <= 3 dimensions,
// kd-tree leaf order otherwise; or the shuffled order.
tt::PointOrder cell_order(const CellDef& c) {
  if (c.shuffled) return tt::PointOrder::kShuffled;
  const int dim = c.input == "plummer"   ? 3
                  : c.input == "geocity" ? 2
                                         : tt::KernelRequest{}.dim;
  return dim <= 3 ? tt::PointOrder::kMorton : tt::PointOrder::kTree;
}

tt::KernelRequest cell_request(const CellDef& c, std::size_t n,
                               std::uint64_t seed) {
  tt::KernelRequest r;
  r.n = n;
  r.seed = seed;
  r.input = c.input;
  r.order = cell_order(c);
  return r;
}

std::string cell_label(const CellDef& c) {
  return c.kernel + "/" + c.input + (c.shuffled ? "/shuffled" : "/sorted");
}

double steady_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

SpanLog::SpanLog() : origin_ns_(steady_ns()) {}

double SpanLog::now_ns() const { return steady_ns() - origin_ns_; }

std::size_t SpanLog::open(const char* name, std::uint64_t id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.t0_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  spans_[index].t1_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanLog::add(const char* name, std::uint64_t id, double t0_ns,
                  double t1_ns) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.t0_ns = t0_ns;
  s.t1_ns = t1_ns;
  spans_.push_back(s);
}

std::map<std::string, double> SpanLog::self_ns_by_name() const {
  // Children may run in parallel (slot spans), so the covered part of a
  // parent is the union of its children's intervals, not their sum.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.t0_ns, s.t1_ns});
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[spans_[i].name] += (spans_[i].t1_ns - spans_[i].t0_ns) - covered;
  }
  return out;
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  f << "index,name,id,parent,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << i << ',' << s.name << ',' << s.id << ',' << s.parent << ','
      << static_cast<std::int64_t>(s.t0_ns) << ','
      << static_cast<std::int64_t>(s.t1_ns) << '\n';
  }
}

// ---------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------

namespace {

// The data and spatial calls KernelFactory::make makes for this request,
// timed one by one (traced runs only; the results are discarded).
void time_data_and_spatial(const CellDef& c, const tt::KernelRequest& r,
                           SpanLog& log, SetupTimes& t) {
  auto timed = [&](const char* span, double& acc, auto&& fn) {
    SpanScope s(&log, span);
    const double t0 = log.now_ns();
    auto out = fn();
    acc += (log.now_ns() - t0) / 1e9;
    return out;
  };
  if (c.kernel == "bh") {
    tt::BodySet b = timed("data.generate", t.generate_s,
                          [&] { return tt::gen_plummer(r.n, r.seed); });
    const auto perm = timed("data.order", t.order_s, [&] {
      return tt::order_permutation(b.pos, r.order, r.leaf_size, r.seed);
    });
    b.pos.permute(perm);
    std::vector<float> mass(b.mass.size());
    for (std::size_t j = 0; j < perm.size(); ++j) mass[j] = b.mass[perm[j]];
    (void)timed("spatial.build", t.build_s,
                [&] { return tt::build_octree(b.pos, mass); });
    return;
  }
  tt::PointSet pts = timed("data.generate", t.generate_s, [&] {
    if (r.input == "covtype") return tt::gen_covtype_like(r.n, r.dim, r.seed);
    if (r.input == "mnist") return tt::gen_mnist_like(r.n, r.dim, r.seed);
    if (r.input == "uniform") return tt::gen_uniform(r.n, r.dim, r.seed);
    if (r.input == "geocity") return tt::gen_geocity_like(r.n, r.seed);
    throw std::invalid_argument("no generator for input " + r.input);
  });
  pts.permute(timed("data.order", t.order_s, [&] {
    return tt::order_permutation(pts, r.order, r.leaf_size, r.seed);
  }));
  if (c.kernel == "nn") {
    (void)timed("spatial.build", t.build_s,
                [&] { return tt::build_kdtree_nn(pts); });
  } else if (c.kernel == "vp") {
    // Same vantage-point seed as the registered vp builder.
    (void)timed("spatial.build", t.build_s,
                [&] { return tt::build_vptree(pts, r.seed ^ 0x7b1fa2); });
  } else {
    (void)timed("spatial.build", t.build_s,
                [&] { return tt::build_kdtree(pts, r.leaf_size); });
  }
}

}  // namespace

std::vector<Cell> set_up(const WorkloadDef& w, std::uint64_t seed,
                         SpanLog* log, SetupTimes* times) {
  tt::register_bench_kernels();
  std::vector<Cell> cells;
  cells.reserve(w.cells.size());
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const CellDef& def = w.cells[i];
    const tt::KernelRequest req = cell_request(def, w.n, seed);
    if (log && times) time_data_and_spatial(def, req, *log, *times);
    Cell c;
    c.def = def;
    c.space = std::make_unique<tt::GpuAddressSpace>();
    {
      SpanScope s(log, "KernelFactory::make", i);
      const auto t0 = std::chrono::steady_clock::now();
      c.handle = tt::KernelFactory::instance().make(def.kernel, req, *c.space);
      c.make_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    }
    // Everything make registered (tree + points) crosses the bus; the
    // stack arenas launches add later are device-internal.
    c.upload_bytes = c.space->footprint_bytes();
    c.download_bytes = static_cast<std::uint64_t>(c.handle->result_stride()) *
                       c.handle->num_points();
    cells.push_back(std::move(c));
  }
  return cells;
}

// ---------------------------------------------------------------------
// Result checks.
// ---------------------------------------------------------------------

namespace {

// knn's lockstep and per-lane compositions keep the same neighbours in a
// different heap order, and sum the distances in a different order.
bool knn_match(const tt::KnnResult& a, const tt::KnnResult& b) {
  if (a.kth_d2 != b.kth_d2 || a.found != b.found) return false;
  const float scale = std::max({1.0f, std::fabs(a.sum_d2), std::fabs(b.sum_d2)});
  if (std::fabs(a.sum_d2 - b.sum_d2) > 1e-3f * scale) return false;
  const int n = std::clamp(a.found, 0, tt::kMaxK);
  std::vector<std::int32_t> x(a.ids, a.ids + n), y(b.ids, b.ids + n);
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return x == y;
}

// Empty when `got` matches the cell's reference result bytes.
std::string result_mismatch(const CellDef& c,
                            const std::vector<std::byte>& ref,
                            const std::vector<std::byte>& got,
                            std::size_t stride) {
  if (got.size() != ref.size())
    return "result size " + std::to_string(got.size()) + " != " +
           std::to_string(ref.size());
  if (c.kernel != "knn") {
    if (std::memcmp(got.data(), ref.data(), got.size()) == 0) return "";
    for (std::size_t i = 0; i < got.size(); ++i)
      if (got[i] != ref[i])
        return "result bytes differ at point " + std::to_string(i / stride);
  }
  if (stride != sizeof(tt::KnnResult)) return "knn result stride mismatch";
  const std::size_t n = got.size() / stride;
  for (std::size_t i = 0; i < n; ++i) {
    tt::KnnResult a, b;
    std::memcpy(&a, ref.data() + i * stride, stride);
    std::memcpy(&b, got.data() + i * stride, stride);
    if (!knn_match(a, b))
      return "knn result differs at point " + std::to_string(i);
  }
  return "";
}

std::uint64_t fnv1a(const std::vector<std::byte>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

// Salts for the workload's own draws (arrival traces, pool picks), kept
// apart from the streams the data generators draw from the same seed.
constexpr std::uint64_t kPickStream = 0x70b1;
constexpr std::uint64_t kNominalTrace = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kLadderTrace = 0xc2b2ae3d27d4eb4full;

// The one serving configuration every workload uses: 2 devices, the
// default drain policy and wave policy, warm replay on.
tt::ServingConfig serving_config(const tt::DeviceConfig& device) {
  tt::ServingConfig c;
  c.device = device;
  c.devices = 2;
  c.reuse_identical = true;
  return c;
}

tt::QuerySet query_for(Cell& c) {
  tt::QuerySet q;
  q.spec.kernel = c.handle;
  q.spec.space = c.space.get();
  q.spec.mode = tt::GpuMode::from(Variant::kAutoSelect);
  q.upload_bytes = c.upload_bytes;
  q.download_bytes = c.download_bytes;
  return q;
}

// Arrival traces are drawn at this rate and scaled to each rung's rate.
constexpr double kUnitRate = 1000.0;

// Which pool entry each of `n` queries asks for, uniformly.
std::vector<std::uint32_t> pool_picks(std::uint64_t seed, std::uint64_t salt,
                                      std::size_t n, std::size_t pool_size) {
  tt::Pcg32 rng(seed ^ salt, kPickStream);
  std::vector<std::uint32_t> e(n);
  for (auto& x : e) x = rng.next_below(static_cast<std::uint32_t>(pool_size));
  return e;
}

// One serving segment: a trace submitted into a session that is idle when
// it starts, flushed, and measured from each query's arrival stamp.
struct Segment {
  double p99 = 0;        // over the admitted queries
  std::size_t dropped = 0;
  double backlog = 0;    // last completion - last arrival
  double last_done = 0;  // last completion (modelled ms)
  bool pass = false;     // no drops, p99 and backlog within the limit
  double call_s = 0;     // wall time of the submits and the flush
};

// Submits `unit` (arrival stamps at kUnitRate) times `scale`, offset by
// `t_start`, picking pool[pick[i]] for query i. Segments of one session
// start after the previous segment's last completion, so each sees idle
// devices and an empty queue exactly as a fresh session would; only the
// warm-replay cache carries over, which is exact by design.
Segment run_segment(tt::ServingSession& session,
                    const std::vector<tt::QuerySet>& pool,
                    const std::vector<double>& unit, double scale,
                    const std::vector<std::uint32_t>& pick, double t_start,
                    double limit_ms) {
  Segment seg;
  const std::size_t seen = session.latencies_ms().size();
  std::vector<double> stamp(unit.size());
  for (std::size_t i = 0; i < unit.size(); ++i)
    stamp[i] = t_start + unit[i] * scale;
  std::vector<char> taken(unit.size());
  // Only the program's calls are timed; the bookkeeping below is not.
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < unit.size(); ++i)
    taken[i] = session.submit(pool[pick[i]], stamp[i]);
  session.flush();
  seg.call_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  std::vector<double> admitted;
  admitted.reserve(unit.size());
  for (std::size_t i = 0; i < unit.size(); ++i)
    if (taken[i])
      admitted.push_back(stamp[i]);
    else
      ++seg.dropped;
  const std::vector<double>& lat = session.latencies_ms();
  std::vector<double> mine(lat.begin() + static_cast<std::ptrdiff_t>(seen),
                           lat.end());
  seg.last_done = t_start;
  for (std::size_t i = 0; i < mine.size() && i < admitted.size(); ++i)
    seg.last_done = std::max(seg.last_done, admitted[i] + mine[i]);
  seg.p99 = mine.empty() ? 0 : tt::percentile(mine, 99);
  // Bounded on a stable queue; grows with the trace on an overloaded one.
  seg.backlog = admitted.empty() ? 0 : seg.last_done - admitted.back();
  seg.pass = seg.dropped == 0 && mine.size() == admitted.size() &&
             seg.p99 <= limit_ms && seg.backlog <= limit_ms;
  return seg;
}

}  // namespace

// ---------------------------------------------------------------------
// The pass.
// ---------------------------------------------------------------------

namespace {

// One pass over a workload's cells: the solo stage, the sharded stage and
// the serving stage, accumulating the metrics as they go.
class Pass {
 public:
  Pass(std::vector<Cell>& cells, const WorkloadDef& w, std::uint64_t seed,
       const PassOptions& opt)
      : cells_(cells), w_(w), seed_(seed), log_(opt.log), dev_(opt.device),
        reference_(cells.size()), stride_(cells.size(), 0) {}

  PassResult run() {
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) solo(ci);
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) sharded(ci);
    serving();
    finish();
    return std::move(out_);
  }

 private:
  void fail(std::string msg) {
    ++out_.failed;
    if (out_.failures.size() < 8) out_.failures.push_back(std::move(msg));
  }
  void fp(const std::string& k, double v) { out_.fingerprint.emplace_back(k, v); }

  // Times one call into the program; the pass's run time is the sum.
  template <class Fn>
  auto timed(const char* span, std::uint64_t id, Fn&& fn) {
    SpanScope s(log_, span, id);
    const auto t0 = std::chrono::steady_clock::now();
    auto r = fn();
    last_s_ = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    out_.call_s.push_back(last_s_);
    return r;
  }

  [[nodiscard]] double round_trip(const Cell& c) const {
    return transfer_.round_trip_ms(c.upload_bytes, c.download_bytes);
  }

  void solo(std::size_t ci);
  void check_cell(std::size_t ci, const std::vector<tt::LaunchResult>& rs);
  void sharded(std::size_t ci);
  void serving();
  tt::ServingReport nominal(tt::ServingSession& session,
                            std::vector<tt::QuerySet>& pool);
  void ladder(tt::ServingSession& session, std::vector<tt::QuerySet>& pool,
              double t_start);
  void finish();

  std::vector<Cell>& cells_;
  const WorkloadDef& w_;
  std::uint64_t seed_;
  SpanLog* log_;
  tt::DeviceConfig dev_;
  tt::TransferModel transfer_;
  PassResult out_;
  double last_s_ = 0;

  // Each cell's reference result bytes (its auto_nolockstep launch).
  std::vector<std::vector<std::byte>> reference_;
  std::vector<std::size_t> stride_;

  // End-to-end and per-layer accumulators.
  double auto_ms_ = 0, best_ms_ = 0, makespan_ms_ = 0, p99_ms_ = 0;
  double capacity_ = 0;
  tt::KernelStats work_;  // merged over every solo launch
  double load_groups_ = 0, issued_ = 0, ideal_ = 0;
  double mem_bound_ = 0, launch_failed_ = 0;
  double sampling_ms_ = 0, lockstep_picks_ = 0, sampled_visits_ = 0;
  double profile_host_s_ = 0;
  double expansion_sum_ = 0, expansion_warps_ = 0;
  std::map<Variant, std::pair<double, double>> wall_visits_;
  double solo_wall_ = 0, serial_s_ = 0;
  double dg_host_ = 0, dg_single_ = 0, dg_dev0_ = 0, dg_mean_ = 0;
  double dg_steals_ = 0, dg_exposed_ = 0, dg_failed_ = 0;
  std::vector<double> submit_ns_;
};

// Every eligible variant of the cell, one run_launch_pool call each, in
// the fixed kAllVariants order.
void Pass::solo(std::size_t ci) {
  Cell& c = cells_[ci];
  const std::string label = cell_label(c.def);
  const double cycles_per_ms = dev_.clock_ghz * 1e6;
  double best = std::numeric_limits<double>::infinity();
  std::vector<tt::LaunchResult> results;
  for (Variant v : tt::kAllVariants) {
    if (!c.handle->variant_ineligible_reason(v).empty()) continue;
    tt::LaunchSpec spec;
    spec.kernel = c.handle;
    spec.space = c.space.get();
    spec.mode = tt::GpuMode::from(v);
    if (v == Variant::kAutoSelect && log_) {
      // The sampler auto_select runs inside the launch, called alone.
      SpanScope s(log_, "KernelHandle::profile", ci);
      const double t0 = log_->now_ns();
      const tt::ProfileReport p = c.handle->profile(spec.mode.profile_samples,
                                                    spec.mode.profile_seed);
      profile_host_s_ += (log_->now_ns() - t0) / 1e9;
      sampled_visits_ += static_cast<double>(p.sampled_visits);
    }
    ++out_.attempted;
    tt::LaunchPool pool =
        timed("run_launch_pool", out_.launches.size(),
              [&] { return tt::run_launch_pool(std::span(&spec, 1), dev_); });
    tt::LaunchResult& r = pool.launches.front();
    if (!r.ok()) {
      ++launch_failed_;
      fail(label + " " + tt::variant_name(v) + ": " + r.error);
      continue;
    }
    LaunchLog L;
    L.cell = ci;
    L.variant = v;
    L.executed = r.variant;
    L.sampling_cycles = r.selection ? r.selection->sampling_cycles : 0;
    L.wall_s = last_s_;
    L.sim_wall_s = pool.sim_wall_ms / 1e3;
    L.stats = r.stats;
    out_.launches.push_back(L);

    work_.merge(r.stats);
    for (const tt::BufferTraffic& row : r.stats.memory.rows()) {
      load_groups_ += static_cast<double>(row.load_groups);
      issued_ += static_cast<double>(row.issued_segments);
      ideal_ += static_cast<double>(row.ideal_segments);
    }
    if (r.time.memory_bound) ++mem_bound_;
    auto& wv = wall_visits_[v];
    wv.first += L.wall_s;
    wv.second += static_cast<double>(r.stats.lane_visits);
    solo_wall_ += L.wall_s;
    serial_s_ += L.wall_s - L.sim_wall_s;

    const std::string key = label + "/" + tt::variant_name(v);
    fp(key + "/total_ms", r.time.total_ms);
    fp(key + "/compute_ms", r.time.compute_ms);
    fp(key + "/memory_ms", r.time.memory_ms);
    fp(key + "/instr_cycles", r.stats.instr_cycles);
    fp(key + "/lane_visits", static_cast<double>(r.stats.lane_visits));
    fp(key + "/dram", static_cast<double>(r.stats.dram_transactions));
    fp(key + "/l2_hits", static_cast<double>(r.stats.l2_hit_transactions));
    fp(key + "/results_fnv", static_cast<double>(fnv1a(r.results) >> 11));

    if (v == Variant::kAutoSelect) {
      auto_ms_ += r.time.total_ms + round_trip(c);
      sampling_ms_ += L.sampling_cycles / cycles_per_ms;
      if (r.variant == Variant::kAutoLockstep) ++lockstep_picks_;
    } else {
      best = std::min(best, r.time.total_ms);
    }
    results.push_back(std::move(r));
  }
  if (std::isfinite(best)) best_ms_ += best + round_trip(c);
  check_cell(ci, results);
}

// Every launch of the cell must reproduce the per-lane autoropes
// composition's result (always eligible); also Table 2's work expansion.
void Pass::check_cell(std::size_t ci, const std::vector<tt::LaunchResult>& rs) {
  const Cell& c = cells_[ci];
  const std::string label = cell_label(c.def);
  auto find = [&](Variant v) -> const tt::LaunchResult* {
    for (const tt::LaunchResult& r : rs)
      if (r.variant == v && !r.selection) return &r;
    return nullptr;
  };
  const tt::LaunchResult* ref = find(Variant::kAutoNolockstep);
  if (!ref) {
    fail(label + ": no auto_nolockstep reference result");
    return;
  }
  reference_[ci] = ref->results;
  stride_[ci] = ref->result_stride;
  for (const tt::LaunchResult& r : rs) {
    const std::string why =
        result_mismatch(c.def, reference_[ci], r.results, stride_[ci]);
    if (!why.empty())
      fail(label + " " + tt::variant_name(r.variant) + ": " + why);
  }
  // Lockstep union pops over the warp's longest per-lane traversal.
  const tt::LaunchResult* lock = find(Variant::kAutoLockstep);
  if (!lock || lock->per_warp_pops.size() != ref->n_warps) return;
  const auto ws = static_cast<std::size_t>(dev_.warp_size);
  for (std::size_t wi = 0; wi < ref->n_warps; ++wi) {
    std::uint32_t longest = 0;
    for (std::size_t i = wi * ws; i < std::min(ref->n_points, (wi + 1) * ws);
         ++i)
      longest = std::max(longest, ref->per_point_visits[i]);
    if (longest == 0) continue;
    expansion_sum_ += static_cast<double>(lock->per_warp_pops[wi]) / longest;
    ++expansion_warps_;
  }
}

// auto_select sharded across a fixed 4-device group, work stealing.
void Pass::sharded(std::size_t ci) {
  Cell& c = cells_[ci];
  const std::string label = cell_label(c.def);
  tt::DeviceGroupConfig group;
  group.devices = 4;
  group.device = dev_;
  group.transfer = transfer_;
  group.policy = tt::BatchPolicy::kWorkStealing;
  tt::LaunchSpec spec;
  spec.kernel = c.handle;
  spec.space = c.space.get();
  spec.mode = tt::GpuMode::from(Variant::kAutoSelect);
  ++out_.attempted;
  const tt::ShardedRun sr = timed("run_sharded", ci, [&] {
    return tt::run_sharded(spec, c.upload_bytes, c.download_bytes, group);
  });
  dg_host_ += last_s_;
  if (!sr.merged.ok()) {
    ++dg_failed_;
    fail(label + " sharded: " + sr.merged.error);
    return;
  }
  if (!reference_[ci].empty()) {
    const std::string why =
        result_mismatch(c.def, reference_[ci], sr.merged.results, stride_[ci]);
    if (!why.empty()) fail(label + " sharded: " + why);
  }
  makespan_ms_ += sr.makespan_ms;
  dg_single_ += sr.single_device_ms;
  double busy_sum = 0;
  for (const tt::DeviceShard& d : sr.devices) {
    busy_sum += d.busy_ms;
    dg_steals_ += static_cast<double>(d.steals);
    fp(label + "/sharded/dev" + std::to_string(d.device) + "/busy_ms",
       d.busy_ms);
  }
  if (!sr.devices.empty()) {
    dg_dev0_ += sr.devices.front().busy_ms;
    dg_mean_ += busy_sum / static_cast<double>(sr.devices.size());
  }
  dg_exposed_ += sr.exposed_ms();
  fp(label + "/sharded/makespan_ms", sr.makespan_ms);
}

// One session serves the nominal-rate trace and then the capacity
// ladder's segments; the pool is every cell of the workload, auto_select.
void Pass::serving() {
  std::vector<tt::QuerySet> pool;
  for (Cell& c : cells_) pool.push_back(query_for(c));
  tt::ServingSession session(serving_config(dev_));
  const tt::ServingReport r = nominal(session, pool);
  ladder(session, pool, r.last_completion_ms + 1.0);
  const tt::ServingReport all = session.report();
  if (all.completed + all.dropped != all.submitted)
    fail("serving: completed + dropped != submitted");
  for (std::size_t i = r.failed; i < all.failed; ++i)
    fail("serving ladder: query failed");
}

// The nominal rate: p99 from each query's arrival stamp.
tt::ServingReport Pass::nominal(tt::ServingSession& session,
                                std::vector<tt::QuerySet>& pool) {
  const ServeConstants& sv = w_.serve;
  const std::vector<std::uint32_t> pick =
      pool_picks(seed_, 1, sv.nominal_queries, pool.size());
  const std::vector<double> arrivals = tt::poisson_trace(
      sv.nominal_queries, sv.nominal_qps, seed_ ^ kNominalTrace);
  std::size_t refused = 0;
  if (log_) submit_ns_.reserve(sv.nominal_queries);
  const tt::ServingReport rep = timed("serving.nominal", 0, [&] {
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (!log_) {
        refused += session.submit(pool[pick[i]], arrivals[i]) ? 0 : 1;
        continue;
      }
      const double t0 = log_->now_ns();
      refused += session.submit(pool[pick[i]], arrivals[i]) ? 0 : 1;
      const double t1 = log_->now_ns();
      log_->add("ServingSession::submit", i, t0, t1);
      submit_ns_.push_back(t1 - t0);
    }
    {
      SpanScope s(log_, "ServingSession::flush");
      session.flush();
    }
    SpanScope s(log_, "ServingSession::report");
    return session.report();
  });
  // Any drop here fails the run, so the p99 of the served queries is the
  // p99 of the trace.
  p99_ms_ = rep.latency.p99;
  out_.attempted += rep.submitted;
  if (refused != rep.dropped)
    fail("serving: submit refusals disagree with the report");
  for (std::size_t i = 0; i < rep.dropped + rep.failed; ++i)
    fail("serving: query dropped or failed at the nominal rate");
  double cold = 0;
  for (const tt::DrainRecord& d : rep.drains)
    cold += static_cast<double>(d.cold_launches);
  const double completed = static_cast<double>(rep.completed);
  const double drains = static_cast<double>(rep.drains.size());
  Record& k = out_.counts;
  k["serving.cold_launches"] = cold;
  k["serving.replay_rate"] = completed > 0 ? (completed - cold) / completed : 0;
  k["serving.drains"] = drains;
  k["serving.mean_wave"] = drains > 0 ? completed / drains : 0;
  k["serving.queue_delay_p99_ms"] = rep.queue_delay.p99;
  k["serving.occupancy"] = rep.occupancy();
  k["serving.transfer_saved_ms"] =
      rep.summed_solo_transfer_ms() - rep.amortized_transfer_ms();
  k["serving.dropped"] = static_cast<double>(rep.dropped);
  return rep;
}

// Capacity: bisection over the fixed ladder, each probed rung a segment
// (see run_segment) whose submits and flush count as one program call.
// Every rung replays the same arrival trace scaled to its rate, which
// keeps pass/fail monotone in the rate in practice, so bisection finds
// the rung a full scan would.
void Pass::ladder(tt::ServingSession& session,
                  std::vector<tt::QuerySet>& pool, double t_start) {
  const ServeConstants& sv = w_.serve;
  const std::vector<std::uint32_t> pick =
      pool_picks(seed_, 2, sv.rung_queries, pool.size());
  const std::vector<double> unit =
      tt::poisson_trace(sv.rung_queries, kUnitRate, seed_ ^ kLadderTrace);
  std::ptrdiff_t lo = -1;
  auto hi = static_cast<std::ptrdiff_t>(sv.ladder_qps.size());
  while (hi - lo > 1) {
    const std::ptrdiff_t mid = (lo + hi) / 2;
    const double rate = sv.ladder_qps[static_cast<std::size_t>(mid)];
    SpanScope rung(log_, "serving.rung", static_cast<std::uint64_t>(mid));
    const Segment seg = run_segment(session, pool, unit, kUnitRate / rate,
                                    pick, t_start, sv.p99_limit_ms);
    out_.call_s.push_back(seg.call_s);
    (seg.pass ? lo : hi) = mid;
    fp("ladder/" + std::to_string(mid) + "/p99", seg.p99);
    fp("ladder/" + std::to_string(mid) + "/dropped",
       static_cast<double>(seg.dropped));
    t_start = seg.last_done + 1.0;
  }
  capacity_ = lo >= 0 ? sv.ladder_qps[static_cast<std::size_t>(lo)] : 0.0;
}

void Pass::finish() {
  Record& m = out_.modelled;
  m["auto_ms"] = auto_ms_;
  m["best_ms"] = best_ms_;
  m["makespan_ms"] = makespan_ms_;
  m["p99_ms"] = p99_ms_;
  m["capacity_qps"] = capacity_;

  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const tt::KernelStats& s = work_;
  const auto f = [](std::uint64_t x) { return static_cast<double>(x); };
  Record& k = out_.counts;
  k["profiler.sampling_ms"] = sampling_ms_;
  k["profiler.lockstep_picks"] = lockstep_picks_;
  k["profiler.regret"] = ratio(auto_ms_, best_ms_);
  k["launch.lane_visits"] = f(s.lane_visits);
  k["launch.warp_steps"] = f(s.warp_steps);
  k["launch.simt_efficiency"] =
      ratio(f(s.active_lane_sum), f(s.warp_steps) * dev_.warp_size);
  k["launch.work_expansion"] = ratio(expansion_sum_, expansion_warps_);
  k["launch.failed"] = launch_failed_;
  k["simt.load_instructions"] = f(s.load_instructions);
  k["simt.segments_per_load"] = ratio(issued_, load_groups_);
  k["simt.coalescing_efficiency"] = ratio(ideal_, issued_);
  k["simt.l2_hit_rate"] =
      ratio(f(s.l2_hit_transactions),
            f(s.l2_hit_transactions) + f(s.dram_transactions));
  k["simt.smem_cache_hit_rate"] = ratio(
      f(s.smem_cache_hits), f(s.smem_cache_hits) + f(s.smem_cache_misses));
  k["simt.dram_transactions"] = f(s.dram_transactions);
  k["simt.memory_bound_launches"] = mem_bound_;
  for (std::size_t b = 0; b < tt::kNumCycleBuckets; ++b)
    k[std::string("simt.cycles.") +
      tt::cycle_bucket_name(static_cast<tt::CycleBucket>(b))] =
        ratio(s.cycle_buckets[b], s.instr_cycles);
  k["device_group.speedup"] = ratio(dg_single_, makespan_ms_);
  k["device_group.dev0_share"] = ratio(dg_dev0_, dg_mean_);
  k["device_group.steals"] = dg_steals_;
  k["device_group.exposed_transfer_ms"] = dg_exposed_;
  k["device_group.failed"] = dg_failed_;
  k["kernel_compose.loads_elided"] = f(s.shared_loads_elided);

  if (log_) {
    Record& h = out_.host;
    h["profiler.host_s"] = profile_host_s_;
    h["profiler.sampled_visits"] = sampled_visits_;
    for (Variant v : tt::kAllVariants) {
      const auto& [wall, visits] = wall_visits_[v];
      h[std::string("launch.ns_per_lane_visit.") + tt::variant_name(v)] =
          ratio(wall * 1e9, visits);
    }
    h["launch.serial_s"] = serial_s_;
    h["simt.host_ns_per_load"] = ratio(solo_wall_ * 1e9, f(s.load_instructions));
    h["device_group.host_s"] = dg_host_;
    h["serving.submit_ns_p50"] = tt::percentile(submit_ns_, 50);
    h["serving.submit_us_p99"] = tt::percentile(submit_ns_, 99) / 1e3;
  }
  for (const auto& [name, v] : out_.modelled) fp(name, v);
  for (const auto& [name, v] : out_.counts) fp(name, v);
}

}  // namespace

PassResult run_pass(std::vector<Cell>& cells, const WorkloadDef& w,
                    std::uint64_t seed, const PassOptions& opt) {
  return Pass(cells, w, seed, opt).run();
}

// ---------------------------------------------------------------------
// Derivation of the serving constants.
// ---------------------------------------------------------------------

void derive_serving(std::vector<Cell>& cells, const WorkloadDef& w,
                    std::uint64_t seed, const tt::DeviceConfig& dev) {
  const tt::TransferModel transfer;
  std::vector<tt::QuerySet> pool;
  double service_sum = 0, service_max = 0;
  for (Cell& c : cells) {
    pool.push_back(query_for(c));
    const tt::LaunchPool lp =
        tt::run_launch_pool(std::span(&pool.back().spec, 1), dev);
    const double s = lp.launches.front().time.total_ms +
                     transfer.round_trip_ms(c.upload_bytes, c.download_bytes);
    service_sum += s;
    service_max = std::max(service_max, s);
    std::printf("service_ms %-28s %.6f\n", cell_label(c.def).c_str(), s);
  }
  const double mean = service_sum / static_cast<double>(pool.size());
  const tt::ServingConfig cfg = serving_config(dev);
  const double c0 = static_cast<double>(cfg.devices) * 1e3 / mean;
  std::printf("mean_service_ms %.6f max_service_ms %.6f idle_capacity_qps %.1f\n",
              mean, service_max, c0);
  double p0 = -1;
  const std::vector<double> unit =
      tt::poisson_trace(w.serve.rung_queries, kUnitRate, seed ^ kLadderTrace);
  const std::vector<std::uint32_t> pick =
      pool_picks(seed, 2, unit.size(), pool.size());
  tt::ServingSession session(cfg);
  double t_start = 0;
  for (double rate = 0.1 * c0; rate <= 1.6 * c0; rate *= 1.05) {
    const Segment seg = run_segment(session, pool, unit, kUnitRate / rate,
                                    pick, t_start, w.serve.p99_limit_ms);
    std::printf("rate_qps %10.1f p99_ms %10.4f backlog_ms %10.4f dropped %zu\n",
                rate, seg.p99, seg.backlog, seg.dropped);
    if (p0 < 0) p0 = seg.p99;
    t_start = seg.last_done + 1.0;
  }
  // The rule README.md documents: nominal at half the idle capacity, the
  // limit at twice the p99 of a nearly idle group (the first scan rate),
  // the ladder from a quarter of the idle capacity in 3% steps to 4x.
  std::printf("constants nominal_qps %.0f p99_limit_ms %.2f ladder_lo_qps %.0f\n",
              std::round(0.5 * c0 / 10) * 10, std::round(2 * p0 * 100) / 100,
              std::round(0.25 * c0));
}

// ---------------------------------------------------------------------
// Traced-run extras.
// ---------------------------------------------------------------------

namespace {

// same_stats compares every field of these structs by name. A field added
// to one of them changes its size and stops the build here until
// same_stats compares it too and the size below is updated. (Sizes as
// laid out by libstdc++ on a 64-bit target.)
#if defined(__GLIBCXX__) && __SIZEOF_POINTER__ == 8
static_assert(sizeof(tt::KernelStats) == 224, "update same_stats");
static_assert(sizeof(tt::MemoryAttribution) == 48, "update same_stats");
static_assert(sizeof(tt::BufferTraffic) == 144, "update same_stats");
static_assert(sizeof(tt::FieldTraffic) == 88, "update same_stats");
#endif

// Exact comparison of two KernelStats: every counter, every cycle bucket,
// every memory-attribution row.
bool same_stats(const tt::KernelStats& a, const tt::KernelStats& b) {
  if (a.load_instructions != b.load_instructions ||
      a.dram_transactions != b.dram_transactions ||
      a.l2_hit_transactions != b.l2_hit_transactions ||
      a.dram_bytes != b.dram_bytes || a.instr_cycles != b.instr_cycles ||
      a.warp_steps != b.warp_steps || a.lane_visits != b.lane_visits ||
      a.warp_pops != b.warp_pops || a.calls != b.calls ||
      a.votes != b.votes || a.active_lane_sum != b.active_lane_sum ||
      a.peak_stack_entries != b.peak_stack_entries ||
      a.smem_cache_hits != b.smem_cache_hits ||
      a.smem_cache_misses != b.smem_cache_misses ||
      a.shared_loads_elided != b.shared_loads_elided ||
      a.cycle_buckets != b.cycle_buckets)
    return false;
  const auto& ra = a.memory.rows();
  const auto& rb = b.memory.rows();
  if (ra.size() != rb.size()) return false;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    const tt::BufferTraffic& x = ra[i];
    const tt::BufferTraffic& y = rb[i];
    if (x.name != y.name || x.elem_bytes != y.elem_bytes ||
        x.load_groups != y.load_groups ||
        x.replayed_loads != y.replayed_loads ||
        x.issued_segments != y.issued_segments ||
        x.ideal_segments != y.ideal_segments ||
        x.l2_hit_transactions != y.l2_hit_transactions ||
        x.dram_transactions != y.dram_transactions ||
        x.dram_bytes != y.dram_bytes || x.smem_cache_hits != y.smem_cache_hits ||
        x.smem_cache_misses != y.smem_cache_misses ||
        x.mem_stall_cycles != y.mem_stall_cycles ||
        x.fields.size() != y.fields.size())
      return false;
    for (std::size_t f = 0; f < x.fields.size(); ++f) {
      const tt::FieldTraffic& p = x.fields[f];
      const tt::FieldTraffic& q = y.fields[f];
      if (p.name != q.name || p.offset != q.offset || p.bytes != q.bytes ||
          p.transactions != q.transactions ||
          p.l2_hit != q.l2_hit || p.dram != q.dram ||
          p.dram_bytes != q.dram_bytes ||
          p.smem_cache_hits != q.smem_cache_hits ||
          p.mem_stall_cycles != q.mem_stall_cycles)
        return false;
    }
  }
  return true;
}

}  // namespace

std::vector<std::string> slot_pass(std::vector<Cell>& cells,
                                   const PassResult& pass,
                                   const PassOptions& opt, Record& host) {
  SpanLog& log = *opt.log;
  std::vector<std::string> mismatches;
  std::vector<double> slot_us;
  double slot_total_s = 0, launch_wall_s = 0;
  for (std::size_t li = 0; li < pass.launches.size(); ++li) {
    const LaunchLog& L = pass.launches[li];
    Cell& c = cells[L.cell];
    SpanScope whole(&log, "slot_pass", li);
    const double start_ns = log.now_ns();
    std::unique_ptr<tt::LaunchRun> run;
    {
      SpanScope s(&log, "KernelHandle::prepare", li);
      run = c.handle->prepare(*c.space, opt.device,
                              tt::GpuMode::from(L.executed), nullptr,
                              nullptr, 0);
    }
    const std::size_t grid = run->shape.grid;
    std::vector<double> t0(grid), t1(grid);
    std::vector<tt::KernelStats> per_slot;
    {
      SpanScope s(&log, "run_warps", li);
      per_slot = tt::run_warps(
          grid, opt.device,
          [&](std::size_t p, tt::KernelStats& st, tt::L2Cache* l2) {
            t0[p] = log.now_ns();
            run->run_slot(p, st, l2);
            t1[p] = log.now_ns();
          });
      for (std::size_t p = 0; p < grid; ++p) {
        log.add("LaunchRun::run_slot", p, t0[p], t1[p]);
        slot_us.push_back((t1[p] - t0[p]) / 1e3);
        slot_total_s += (t1[p] - t0[p]) / 1e9;
      }
    }
    tt::KernelStats merged = tt::merge_stats(per_slot);
    if (L.variant == Variant::kAutoSelect)
      merged.note_sampling_cycles(L.sampling_cycles);
    launch_wall_s += (log.now_ns() - start_ns) / 1e9;
    if (run->overflow.overflowed() || !same_stats(merged, L.stats))
      mismatches.push_back(cell_label(c.def) + " " +
                           tt::variant_name(L.variant) +
                           ": slot-pass KernelStats differ from the launch");
  }
  std::sort(slot_us.begin(), slot_us.end());
  host["launch.slot_us_p50"] = tt::percentile(slot_us, 50);
  host["launch.slot_us_p99"] = tt::percentile(slot_us, 99);
  host["launch.parallel_efficiency"] =
      launch_wall_s > 0
          ? slot_total_s / (omp_get_max_threads() * launch_wall_s)
          : 0;
  return mismatches;
}

std::vector<std::string> obs_overhead(std::vector<Cell>& cells,
                                      const PassResult& pass,
                                      const PassOptions& opt, Record& host) {
  SpanLog& log = *opt.log;
  std::vector<std::string> changed;
  double off = 0, prof = 0, trace = 0, spanned = 0;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    Cell& c = cells[ci];
    const LaunchLog* base = nullptr;
    for (const LaunchLog& L : pass.launches)
      if (L.cell == ci && L.variant == Variant::kAutoLockstep) base = &L;
    if (base) spanned += base->wall_s;
    SpanScope s(&log, "obs_rerun", ci);
    for (int kind = 0; kind < 3; ++kind) {
      tt::LaunchSpec spec;
      spec.kernel = c.handle;
      spec.space = c.space.get();
      spec.mode = tt::GpuMode::from(Variant::kAutoLockstep);
      tt::obs::ProfileSink psink;
      tt::obs::TraceSink tsink;
      if (kind == 1) spec.profile = &psink;
      if (kind == 2) spec.trace = &tsink;
      const double t0 = log.now_ns();
      const tt::LaunchPool pool =
          tt::run_launch_pool(std::span(&spec, 1), opt.device);
      const double dt = (log.now_ns() - t0) / 1e9;
      (kind == 0 ? off : kind == 1 ? prof : trace) += dt;
      if (!base || !same_stats(pool.launches.front().stats, base->stats))
        changed.push_back(cell_label(c.def) +
                          ": an obs sink changed the launch's KernelStats");
    }
  }
  host["obs.profile_overhead"] = off > 0 ? prof / off - 1 : 0;
  host["obs.trace_overhead"] = off > 0 ? trace / off - 1 : 0;
  // The spans' own cost: the traced pass's run of the same launches.
  host["bench.span_overhead"] = off > 0 ? spanned / off - 1 : 0;
  return changed;
}

}  // namespace perfbench
