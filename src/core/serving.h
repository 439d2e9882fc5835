// Admission--dispatch layer over the type-erased launch API (core/launch.h):
// the batching surface as a serving system (the metalfpga scheduler-VM
// sketch of "batch phases into one launch, minimize sync points" at the
// workload level).
//
// Queries arrive over time, and the interesting measurements are
// throughput, per-query latency percentiles and queue telemetry under an
// arrival process. Two pieces (DESIGN.md section 3.3):
//
//   run_launch_pool(specs, cfg)
//     The dispatch layer: the (launch, slot) concurrent-residency pool,
//     and the batch / serving entry point of the launch engine. Resolves
//     auto_select per launch, simulates every slot, returns per-launch
//     isolated LaunchResults plus their shapes. Pure execution -- no
//     schedule accounting, no timing model. A closed batch (everything
//     known up front) is one call; wave_schedule accounts its shapes.
//
//   ServingSession
//     The admission layer: a session object owning a ring-buffer
//     admission queue. submit(QuerySet, arrival_ms) enqueues work in
//     arrival order; the session drains it work-conservingly (DrainPolicy:
//     a wave starts the moment a device is idle and a query is waiting,
//     and takes up to max_batch pending queries), dispatches each drained
//     wave through run_launch_pool, and derives per-query completion
//     times from the simulated cost model: every query of a wave retires
//     with the wave, at queueing delay (dispatch - arrival, i.e. waiting
//     for a device to go idle) + the wave's one synchronous round trip +
//     the wave's summed modelled compute. The session decides each
//     (kernel, mode) pair once: its first execution takes the
//     section-4.4 decision (sampling, and paying the prologue, when the
//     mode is auto_select), and every later admission of the pair runs
//     as the composition it dispatched, charged that composition's own
//     time. Such a resubmission replays the decided measurements --
//     exact, because batching is results-neutral by construction --
//     which is what makes million-query traces affordable; when it must
//     execute instead it runs the decided mode and never samples again,
//     so its latency is the same. Each wave appends one 12-byte entry to
//     the session's dictionary-encoded drain log (DrainLog), and each
//     query keeps its 8-byte latency, plus 12 bytes only if it waited, so
//     a million lightly loaded queries cost about 20 MB of telemetry.
//
// All times on this layer are *modelled* milliseconds (cost model +
// TransferModel), so every serving number is deterministic for a given
// seed and byte-identical across OMP_NUM_THREADS settings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/launch.h"
#include "simt/device_config.h"
#include "simt/transfer_model.h"
#include "util/stats.h"

namespace tt {

namespace obs {
class ChromeTraceCollector;  // obs/chrome_trace.h
}

// ---------------------------------------------------------------------
// Dispatch layer: the concurrent-residency slot pool.
// ---------------------------------------------------------------------

// Result of simulating a set of LaunchSpecs as one device residency:
// per-launch isolated measurements (LaunchResult order == spec order)
// plus each launch's geometry, which wave_schedule accounts.
struct LaunchPool {
  std::vector<LaunchResult> launches;
  std::vector<LaunchGeometry> shapes;
  double sim_wall_ms = 0;  // host cost of the simulation (diagnostic)
};

// Simulate every spec's slots in one OpenMP pool. auto_select modes are
// resolved per launch (sampling charged to that launch's cost model);
// overflow reports through LaunchResult::error without poisoning sibling
// launches. Throws std::invalid_argument on a spec missing its kernel or
// space, or on auto_select with profile_samples == 0.
[[nodiscard]] LaunchPool run_launch_pool(std::span<const LaunchSpec> specs,
                                         const DeviceConfig& cfg);

// The chunk schedule of launches sharing one device residency. Each
// launch is strip-mined exactly like its solo run (LaunchGeometry: grid
// physical warps walk n_warps chunks, so it needs ceil(n_warps / grid)
// rounds), and the rounds interleave round-robin: round r issues one
// residency-set of chunks from every launch that has an r-th round, in
// launch order, before any launch's round r + 1. The order shapes only
// this accounting -- every launch's results and stats are its solo run's.
struct WaveSchedule {
  std::size_t residency = 0;     // sum of the launches' physical-warp grids
  std::size_t total_chunks = 0;  // sum of the launches' logical warps
  std::size_t rounds = 0;        // residency refills: most of any launch
  std::size_t switches = 0;      // adjacent chunks of different launches
};
[[nodiscard]] WaveSchedule wave_schedule(
    std::span<const LaunchGeometry> shapes);

// ---------------------------------------------------------------------
// Admission layer.
// ---------------------------------------------------------------------

// One unit of admitted work: a prepared kernel over its own address
// space, plus the bytes it ships across the bus (accounted per drained
// wave: one amortized round trip for the wave, vs one per query solo).
struct QuerySet {
  LaunchSpec spec;
  std::uint64_t upload_bytes = 0;
  std::uint64_t download_bytes = 0;
};

// How pending queries form waves. Draining is work-conserving: a wave
// starts at max(oldest pending arrival, earliest device-free time), so no
// device idles while a query waits, and it takes the pending queries in
// FIFO order, up to `max_batch` -- every one of them has arrived by then.
// An idle group therefore serves each query at its arrival (waves of
// one); under load a wave holds whatever arrived while every device was
// busy, so batching (fewer launch overheads, amortized transfer) happens
// exactly where queueing already costs latency. `max_batch` caps how
// much of a backlog one launch may absorb.
struct DrainPolicy {
  std::size_t max_batch = 8;
};

struct ServingConfig {
  DeviceConfig device;
  // Simulated device count. Each drained wave dispatches to the
  // earliest-free device (ties to the lowest index), so open-loop
  // throughput scales with the group size while per-wave batching
  // semantics stay unchanged. 1 keeps the single-device model
  // byte-for-byte.
  std::size_t devices = 1;
  DrainPolicy drain;
  TransferModel transfer;
  // Ring-buffer admission queue capacity: it bounds every query not yet
  // dispatched. A submit that finds the ring full is dropped (counted,
  // never silently).
  std::size_t queue_capacity = 4096;
  // Replay the decided measurements for identical (kernel, mode)
  // resubmissions instead of re-simulating. Exact by the
  // results-neutrality contract; queries carrying their own trace/profile
  // sinks always execute. Decisions are reused either way: with replay
  // off, a resubmission executes the composition its pair's first launch
  // dispatched, without sampling, so both settings give the same
  // latencies.
  bool reuse_identical = true;
  // When set, the executed launches of each of the first 32 drained
  // waves open Chrome-trace tracks named "drain<i>/<kernel>", so
  // admission waves are visible as per-drain process tracks in Perfetto.
  obs::ChromeTraceCollector* chrome = nullptr;
};

// Latency distribution over modelled per-query times.
struct LatencySummary {
  std::size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

// `count` queries that share one value.
struct LatencyRun {
  double value = 0;
  std::size_t count = 0;
};

// The summary of the union of `runs` (ascending by value; values may
// repeat across runs) and `singles` (ascending values, one query each),
// merged without copying either. It is what one sorted pass over the
// values listed one by one computes, bit for bit: the mean sums them
// smallest first, adding each value once per query (never value *
// count), and p50/p95/p99/max are the order statistics at their ranks
// (util/stats.h percentile_rank).
template <std::ranges::forward_range Singles>
  requires std::ranges::sized_range<Singles>
[[nodiscard]] LatencySummary summarize_sorted(std::span<const LatencyRun> runs,
                                              Singles&& singles) {
  LatencySummary out;
  out.count = std::ranges::size(singles);
  for (const LatencyRun& r : runs) out.count += r.count;
  if (out.count == 0) return out;
  const PercentileRank rank[3] = {percentile_rank(out.count, 50),
                                  percentile_rank(out.count, 95),
                                  percentile_rank(out.count, 99)};
  double lo[3] = {};
  double hi[3] = {};
  double sum = 0;
  std::size_t seen = 0;
  auto add = [&](double value, std::size_t count) {
    if (count == 0) return;
    for (std::size_t k = 0; k < count; ++k) sum += value;
    for (std::size_t i = 0; i < 3; ++i) {
      if (rank[i].lo >= seen && rank[i].lo < seen + count) lo[i] = value;
      if (rank[i].hi >= seen && rank[i].hi < seen + count) hi[i] = value;
    }
    seen += count;
    out.max = value;
  };
  auto s = std::ranges::begin(singles);
  const auto end = std::ranges::end(singles);
  for (const LatencyRun& r : runs) {
    for (; s != end && *s < r.value; ++s) add(*s, 1);
    add(r.value, r.count);
  }
  for (; s != end; ++s) add(*s, 1);
  out.mean = sum / static_cast<double>(out.count);
  out.p50 = rank[0].between(lo[0], hi[0]);
  out.p95 = rank[1].between(lo[1], hi[1]);
  out.p99 = rank[2].between(lo[2], hi[2]);
  return out;
}

// Sorts `xs` and summarizes it as singles: percentile() over one sorted
// pass (util/stats.h).
[[nodiscard]] LatencySummary summarize_latency(std::vector<double> xs);

// One drained wave's accounting: the record every reader of a drain log
// sees. The log itself stores it split in two (see DrainLog).
struct DrainRecord {
  double dispatch_ms = 0;  // max(oldest pending arrival, device free)
  double transfer_ms = 0;  // the wave's one amortized round trip
  double solo_transfer_ms = 0;  // what the same queries pay one-by-one
  double compute_ms = 0;        // sum of the wave's modelled kernel times
  std::uint32_t device = 0;     // the earliest-free device, which ran it
  std::uint32_t n_queries = 0;
  std::uint32_t queue_depth_before = 0;  // pending count when fired
  std::uint32_t cold_launches = 0;       // executed (vs replayed)
  // The wave's round-robin chunk schedule (wave_schedule).
  std::uint32_t residency = 0;
  std::uint32_t total_chunks = 0;
  std::uint32_t rounds = 0;
  std::uint32_t switches = 0;

  // Device busy time of the wave.
  [[nodiscard]] double service_ms() const { return transfer_ms + compute_ms; }
};

// A session's append-only drain log, dictionary-encoded. Each wave keeps a
// 12-byte entry -- its dispatch_ms and the 32-bit id of its *body*, in two
// parallel arrays -- and the body, every other DrainRecord field, is
// stored once per distinct bit pattern. Waves of one (kernel, mode) pair
// on one device differ almost only in dispatch_ms, and a lightly loaded
// session drains nearly once per query at queue depth 1, so the log costs
// about 12 bytes per wave; a trace whose bodies never repeat costs 76-84
// (entry, body, index). Interning compares exact bits: bodies that differ
// in one bit of one double, or in the sign of a zero, stay distinct, so
// operator[] rebuilds what append() was given bit for bit. Entries and
// bodies are never moved or rewritten once appended.
class DrainLog {
 public:
  // Appends `rec` and returns the id of its body. Ids are dense, in order
  // of first appearance: a new body's id is the bodies() before it.
  std::uint32_t append(const DrainRecord& rec);

  [[nodiscard]] std::size_t size() const { return dispatch_ms_.size(); }
  [[nodiscard]] std::size_t bodies() const { return bodies_.size(); }
  // The service_ms() of every record built from body `id`.
  [[nodiscard]] double service_ms(std::uint32_t id) const {
    return bodies_[id].transfer_ms + bodies_[id].compute_ms;
  }
  [[nodiscard]] DrainRecord operator[](std::size_t i) const {
    const Body& b = bodies_[body_[i]];
    return {.dispatch_ms = dispatch_ms_[i],
            .transfer_ms = b.transfer_ms,
            .solo_transfer_ms = b.solo_transfer_ms,
            .compute_ms = b.compute_ms,
            .device = b.device,
            .n_queries = b.n_queries,
            .queue_depth_before = b.queue_depth_before,
            .cold_launches = b.cold_launches,
            .residency = b.residency,
            .total_chunks = b.total_chunks,
            .rounds = b.rounds,
            .switches = b.switches};
  }

 private:
  // No padding bytes, so a body's object representation is its bit
  // pattern: interning hashes and compares it.
  struct Body {
    double transfer_ms;
    double solo_transfer_ms;
    double compute_ms;
    std::uint32_t device;
    std::uint32_t n_queries;
    std::uint32_t queue_depth_before;
    std::uint32_t cold_launches;
    std::uint32_t residency;
    std::uint32_t total_chunks;
    std::uint32_t rounds;
    std::uint32_t switches;
  };
  static_assert(sizeof(Body) == 3 * sizeof(double) + 8 * sizeof(std::uint32_t),
                "Body has no padding bytes");

  static std::size_t hash(const Body& b);
  // The id of `b`'s bit pattern, storing it first if it is new.
  std::uint32_t intern(const Body& b);
  void rehash(std::size_t n_slots);

  // The entries: wave i dispatched at dispatch_ms_[i] and is built from
  // bodies_[body_[i]].
  std::deque<double> dispatch_ms_;
  std::deque<std::uint32_t> body_;
  std::deque<Body> bodies_;
  // Open-addressing index over body ids (kFree marks an empty slot),
  // power-of-two sized and at most half full. It hashes the body an id
  // points to, so it holds 8-16 bytes per body and no copy of one.
  static constexpr std::uint32_t kFree = UINT32_MAX;
  std::vector<std::uint32_t> slots_;
};

// A read-only prefix of a session's drain log: the first size() drains,
// in dispatch order, each decoded to a DrainRecord returned by value.
// Copying one copies a pointer, never records. It stays valid -- same
// count, same values -- after the session appends more drains and after
// the session is destroyed. (Like the session itself, not safe to read
// while another thread submits.)
class DrainLogView {
 public:
  // Index-based, so the log's growth cannot invalidate it. A proxy
  // iterator: its reference is the decoded record, a prvalue, so it is a
  // std::forward_iterator but only a legacy input iterator.
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = DrainRecord;
    using difference_type = std::ptrdiff_t;
    using reference = DrainRecord;

    iterator() = default;
    iterator(const DrainLog* log, std::size_t i) : log_(log), i_(i) {}
    DrainRecord operator*() const { return (*log_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const DrainLog* log_ = nullptr;
    std::size_t i_ = 0;
  };

  DrainLogView() = default;
  // A view of everything `log` holds now.
  explicit DrainLogView(std::shared_ptr<const DrainLog> log)
      : log_(std::move(log)), n_(log_->size()), n_bodies_(log_->bodies()) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  // Distinct bodies the prefix's records are built from (DrainLog).
  [[nodiscard]] std::size_t interned_bodies() const { return n_bodies_; }
  [[nodiscard]] DrainRecord operator[](std::size_t i) const {
    return (*log_)[i];
  }
  [[nodiscard]] DrainRecord front() const { return (*log_)[0]; }
  [[nodiscard]] DrainRecord back() const { return (*log_)[n_ - 1]; }
  [[nodiscard]] iterator begin() const { return {log_.get(), 0}; }
  [[nodiscard]] iterator end() const { return {log_.get(), n_}; }

 private:
  std::shared_ptr<const DrainLog> log_;
  std::size_t n_ = 0;
  std::size_t n_bodies_ = 0;
};

struct ServingReport {
  std::size_t devices = 1;  // simulated devices serving the session
  std::size_t submitted = 0;
  std::size_t completed = 0;  // admitted and served (failures included)
  std::size_t dropped = 0;    // ring buffer full at submit
  std::size_t failed = 0;     // served but errored (e.g. stack overflow)
  double first_arrival_ms = 0;
  double last_completion_ms = 0;
  double busy_ms = 0;  // total device service time
  std::size_t queue_depth_max = 0;
  Summary queue_depth;  // depth observed after each admit
  LatencySummary latency;      // completion - arrival
  LatencySummary queue_delay;  // dispatch - arrival
  DrainLogView drains;

  [[nodiscard]] double span_ms() const {
    return last_completion_ms > first_arrival_ms
               ? last_completion_ms - first_arrival_ms
               : 0;
  }
  [[nodiscard]] double throughput_qps() const {
    return span_ms() > 0 ? static_cast<double>(completed) / span_ms() * 1e3
                         : 0;
  }
  [[nodiscard]] double occupancy() const {
    // Busy time over the group's total capacity (span x devices).
    return span_ms() > 0
               ? busy_ms / (span_ms() * static_cast<double>(devices))
               : 0;
  }
  [[nodiscard]] double amortized_transfer_ms() const;
  [[nodiscard]] double summed_solo_transfer_ms() const;
};

// The session object. Lifecycle: submit(...) in non-decreasing arrival
// order, then flush() to drain the tail, then report(). Virtual time
// advances with the submitted arrival stamps; a wave fires lazily, once a
// submission (or flush) moves time past its start, so queries sharing an
// arrival stamp share a wave. Move-only: the drain log is shared with
// the reports taken from it, never with another session.
class ServingSession {
 public:
  // Throws std::invalid_argument, naming the field, on drain.max_batch,
  // devices or queue_capacity == 0.
  explicit ServingSession(ServingConfig cfg);
  ServingSession(ServingSession&&) = default;
  ServingSession& operator=(ServingSession&&) = default;
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  // Enqueue one query set at `arrival_ms` (modelled). Returns false when
  // the ring buffer is full and the query was dropped. Throws
  // std::invalid_argument on a missing kernel/space or on an arrival
  // stamp earlier than the previous submit, and std::length_error on the
  // 2^32-th submit (a query's telemetry is indexed in 32 bits).
  bool submit(QuerySet q, double arrival_ms);

  // Drain everything still pending: each residual wave starts as soon as
  // a device is free, as if no later query were coming.
  void flush();

  [[nodiscard]] std::size_t pending() const { return count_; }

  // Aggregate telemetry + percentiles over everything served so far; its
  // drains are a view of the session's log, not a copy. The percentiles
  // are exact and copy no per-query series: report() sorts the waited
  // queries' records in place (no reader depends on their order), which
  // is why it is not const.
  [[nodiscard]] ServingReport report();

  // Per-query modelled latencies, in completion order (the series behind
  // report()'s latency percentiles).
  [[nodiscard]] const std::vector<double>& latencies_ms() const {
    return latencies_;
  }

 private:
  struct Pending {
    QuerySet q;
    double arrival_ms = 0;
  };
  // What a drain needs of one launch's measurement, executed or replayed.
  struct Measured {
    LaunchGeometry shape;
    double total_ms = 0;
    bool ok = true;
  };
  // A (kernel, mode) pair's decision, taken by its first execution: the
  // concrete composition that launch dispatched (dispatched_mode -- the
  // pair's own mode unless it is auto_select) and that composition's
  // measurement without the sampling prologue, which a direct launch of
  // it would report bit for bit. Holds the handle alive: the map is keyed
  // by the KernelHandle's address, which is only a sound identity while
  // that object exists -- without the keepalive, a recycled allocation
  // could alias a dead handle's key and reuse the wrong kernel's decision.
  struct Decision {
    std::shared_ptr<KernelHandle> keepalive;
    GpuMode mode;
    Measured measured;
  };
  // The whole GpuMode is part of the identity: every knob can change the
  // executed composition or its modelled cost.
  using DecisionKey = std::pair<const KernelHandle*, GpuMode>;
  static DecisionKey decision_key(const LaunchSpec& spec);

  // The device the next wave runs on: earliest free, ties to the lowest
  // index so routing is deterministic.
  [[nodiscard]] std::size_t earliest_device() const;
  // When the next wave starts: max(oldest pending arrival, earliest
  // device-free time). Requires a pending query.
  [[nodiscard]] double next_start_ms() const;
  void advance_to(double now_ms);
  void fire(double start_ms);
  [[nodiscard]] const Pending& front() const { return ring_[head_]; }
  Pending pop_front();

  ServingConfig cfg_;
  std::vector<Pending> ring_;  // fixed-capacity ring buffer
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  double last_arrival_ms_ = 0;
  std::vector<double> device_free_ms_;  // per-device modelled idle time
  bool any_arrival_ = false;

  std::map<DecisionKey, Decision> decisions_;

  // Per-drain scratch, reused across drains: once these reach the largest
  // wave's size, a drain's own bookkeeping allocates nothing beyond its
  // log record. fire() empties the query-holding ones before it returns,
  // so no handle outlives its drain here.
  std::vector<Pending> wave_;
  std::vector<Measured> admits_;  // per wave query, in admission order
  std::vector<LaunchSpec> cold_;  // the wave's executed launches
  std::vector<std::size_t> cold_to_admit_;
  std::vector<LaunchGeometry> shapes_;  // per wave query, for wave_schedule

  // Telemetry accumulators: scalars, one double per query served and 12
  // bytes more per query that waited, one 12-byte log entry per drain and
  // one count per drain body, so million-query traces stay small.
  std::size_t submitted_ = 0;
  std::size_t dropped_ = 0;
  std::size_t failed_ = 0;
  double first_arrival_ms_ = 0;
  double last_completion_ms_ = 0;
  double busy_ms_ = 0;
  std::size_t queue_depth_max_ = 0;
  RunningStats queue_depth_stats_;
  std::vector<double> latencies_;
  // A query that did not wait (queueing delay +0.0) has latency
  // (0.0 + transfer_ms) + compute_ms, its wave's service_ms() bit for bit,
  // so it only adds to its drain body's count (indexed by body id): its
  // delay and its latency are both the body's.
  std::vector<std::size_t> unwaited_;
  // Every other query: its index into latencies_ and its queue delay.
  // report() sorts the indices by latency and the delays by value, each
  // array on its own, so nothing may rely on their order or pairing.
  std::vector<std::uint32_t> waited_;
  std::vector<double> waited_delay_ms_;
  // Append-only, shared with every report taken from it.
  std::shared_ptr<DrainLog> drains_ = std::make_shared<DrainLog>();
};

// ---------------------------------------------------------------------
// Open-loop arrival traces (modelled milliseconds, Pcg32-deterministic).
// ---------------------------------------------------------------------

// Poisson process: exponential inter-arrivals at `rate_qps` (queries per
// modelled second). Throws std::invalid_argument on rate_qps <= 0.
[[nodiscard]] std::vector<double> poisson_trace(std::size_t n,
                                                double rate_qps,
                                                std::uint64_t seed);

// On-off modulated Poisson: arrivals at `on_rate_qps` during `on_ms`
// windows, silence for `off_ms` between them (burst traffic). Throws
// std::invalid_argument on a non-positive rate or window.
[[nodiscard]] std::vector<double> bursty_trace(std::size_t n,
                                               double on_rate_qps,
                                               double on_ms, double off_ms,
                                               std::uint64_t seed);

// ---------------------------------------------------------------------
// Report-facing bundle (the obs/run_report.h "serving" block).
// ---------------------------------------------------------------------

// One point of the wave-size sweep: the same trace served with drains
// capped at `max_batch` queries.
struct ServingSweepPoint {
  std::size_t max_batch = 0;
  std::size_t drains = 0;
  double mean_batch = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double throughput_qps = 0;
  double transfer_saved_ms = 0;  // summed-solo minus amortized transfer
};

// Everything the RunReport "serving" block serializes: the scenario, the
// headline session's report, and the optional wave-size sweep.
struct ServingRunSummary {
  std::string arrivals;  // "poisson" | "bursty"
  double rate_qps = 0;
  std::size_t n_queries = 0;
  std::size_t devices = 1;
  DrainPolicy drain;
  Variant variant = Variant::kAutoSelect;
  std::size_t queue_capacity = 0;
  TransferModel transfer;
  ServingReport report;
  std::vector<ServingSweepPoint> sweep;
};

}  // namespace tt
