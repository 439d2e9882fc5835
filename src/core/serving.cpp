#include "core/serving.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "obs/chrome_trace.h"
#include "simt/cost_model.h"
#include "simt/executor.h"
#include "simt/l2cache.h"
#include "util/rng.h"
#include "util/timer.h"

namespace tt {

// ---------------------------------------------------------------------
// Dispatch layer.
// ---------------------------------------------------------------------

LaunchPool run_launch_pool(std::span<const LaunchSpec> specs,
                           const DeviceConfig& cfg) {
  LaunchPool out;

  struct Prep {
    GpuMode mode;  // resolved (auto_select replaced by its dispatch)
    std::optional<SelectionInfo> selection;
    std::unique_ptr<LaunchRun> run;
    std::vector<KernelStats> per_slot;
    std::size_t slice_bytes = 0;
    std::string error;  // admission failure (variant ineligible); run == null
  };
  std::vector<Prep> preps(specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const LaunchSpec& spec = specs[i];
    if (!spec.kernel || !spec.space)
      throw std::invalid_argument("run_launch_pool: LaunchSpec " +
                                  std::to_string(i) +
                                  " is missing its kernel or address space");
    Prep& pr = preps[i];
    GpuMode mode = spec.mode;
    if (mode.auto_select) {
      // Per-launch section-4.4 resolution, the same decision run_gpu_sim
      // takes; finish_launch charges the sampling afterwards.
      if (mode.profile_samples == 0)
        throw std::invalid_argument(
            "run_launch_pool: auto_select needs profile_samples >= 1");
      const ResolvedLaunch r = resolve_auto_select(
          mode,
          spec.kernel->profile(mode.profile_samples, mode.profile_seed, cfg,
                               spec.space),
          spec.kernel->num_points(), cfg);
      mode = r.mode;
      pr.selection = r.selection;
    }
    pr.mode = mode;
    const std::string why =
        spec.kernel->variant_ineligible_reason(mode.variant());
    if (!why.empty()) {
      // Isolation, like an overflow: this launch fails with a prefixed
      // error and zeroed numbers; sibling launches still execute. The
      // message body is the canonical reason string (core/static_ropes.h),
      // same spelling run_gpu_sim and the harness skip rows use.
      pr.error = std::string("kernel ") + spec.kernel->name() + " (batch " +
                 std::to_string(i) + "): " + why;
      out.shapes.push_back(LaunchGeometry{});
      continue;
    }
    pr.run = spec.kernel->prepare(*spec.space, cfg, mode, spec.trace,
                                  spec.profile,
                                  static_cast<std::uint32_t>(i));
    pr.per_slot.assign(pr.run->shape.grid, KernelStats{});
    // The launch's own L2 slice size -- what run_warps gives a solo run
    // over this launch's grid (byte-identity requires it).
    pr.slice_bytes = l2_slice_bytes(cfg, pr.run->shape.grid);
    out.shapes.push_back(pr.run->shape);
  }

  // The concurrent-residency pool: every launch's physical warp slots,
  // simulated in parallel. Slot state is fully launch-private, so OpenMP
  // scheduling (and the chunk order wave_schedule accounts) cannot change
  // any launch's measurements.
  struct Slot {
    std::uint32_t launch = 0;
    std::uint32_t p = 0;
  };
  std::vector<Slot> slots;
  for (std::size_t i = 0; i < preps.size(); ++i)
    for (std::size_t p = 0; preps[i].run && p < preps[i].run->shape.grid; ++p)
      slots.push_back(Slot{static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(p)});

  WallTimer timer;
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t si = 0; si < static_cast<std::int64_t>(slots.size());
       ++si) {
    const Slot sl = slots[static_cast<std::size_t>(si)];
    Prep& pr = preps[sl.launch];
    if (cfg.model_l2) {
      L2Cache slice(pr.slice_bytes, cfg.l2_line_bytes, cfg.l2_assoc);
      pr.run->run_slot(sl.p, pr.per_slot[sl.p], &slice);
    } else {
      pr.run->run_slot(sl.p, pr.per_slot[sl.p], nullptr);
    }
  }
  out.sim_wall_ms = timer.elapsed_ms();

  out.launches.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Prep& pr = preps[i];
    const LaunchSpec& spec = specs[i];
    LaunchResult r;
    r.kernel_name = spec.kernel->name();
    r.batch_index = i;
    r.variant = pr.mode.variant();
    if (!pr.run) {
      r.result_stride = spec.kernel->result_stride();
      r.error = pr.error;
      out.launches.push_back(std::move(r));
      continue;
    }
    r.n_points = pr.run->shape.n;
    r.n_warps = pr.run->shape.n_warps;
    r.result_stride = pr.run->result_stride();
    if (pr.run->overflow.overflowed()) {
      // Isolation: this launch fails with a name+index-prefixed error and
      // zeroed numbers; sibling launches are untouched.
      r.error = std::string("kernel ") + r.kernel_name + " (batch " +
                std::to_string(i) + "): rope stack overflow (variant " +
                variant_name(r.variant) + ", warp " +
                std::to_string(pr.run->overflow.warp()) + ", " +
                std::to_string(pr.run->overflow.entries()) +
                " entries, stack_bound " +
                std::to_string(pr.run->shape.stack_bound) + ")";
      out.launches.push_back(std::move(r));
      continue;
    }
    LaunchTotals t =
        finish_launch(pr.per_slot, cfg, pr.selection, spec.trace, spec.profile);
    r.stats = std::move(t.stats);
    r.time = t.time;
    r.selection = pr.selection;
    r.profile = std::move(t.profile);
    const std::byte* data =
        static_cast<const std::byte*>(pr.run->result_data());
    r.results.assign(data, data + r.n_points * r.result_stride);
    r.per_point_visits = std::move(pr.run->per_point_visits);
    r.per_warp_pops = std::move(pr.run->per_warp_pops);
    out.launches.push_back(std::move(r));
  }
  return out;
}

WaveSchedule wave_schedule(std::span<const LaunchGeometry> shapes) {
  WaveSchedule s;
  auto rounds_of = [](const LaunchGeometry& g) {
    return g.grid == 0 ? std::size_t{0} : (g.n_warps + g.grid - 1) / g.grid;
  };
  for (const LaunchGeometry& g : shapes) {
    s.residency += g.grid;
    s.total_chunks += g.n_warps;
    s.rounds = std::max(s.rounds, rounds_of(g));
  }
  // Every round of a launch holds at least one chunk, so the sequence
  // switches launches exactly where two consecutive launch-rounds come
  // from different launches.
  std::size_t prev = shapes.size();  // none yet
  for (std::size_t r = 0; r < s.rounds; ++r)
    for (std::size_t l = 0; l < shapes.size(); ++l) {
      if (r >= rounds_of(shapes[l])) continue;
      if (prev != shapes.size() && prev != l) ++s.switches;
      prev = l;
    }
  return s;
}

// ---------------------------------------------------------------------
// The drain log.
// ---------------------------------------------------------------------

std::uint32_t DrainLog::append(const DrainRecord& rec) {
  const Body b{.transfer_ms = rec.transfer_ms,
               .solo_transfer_ms = rec.solo_transfer_ms,
               .compute_ms = rec.compute_ms,
               .device = rec.device,
               .n_queries = rec.n_queries,
               .queue_depth_before = rec.queue_depth_before,
               .cold_launches = rec.cold_launches,
               .residency = rec.residency,
               .total_chunks = rec.total_chunks,
               .rounds = rec.rounds,
               .switches = rec.switches};
  const std::uint32_t id = intern(b);
  dispatch_ms_.push_back(rec.dispatch_ms);
  body_.push_back(id);
  return id;
}

std::size_t DrainLog::hash(const Body& b) {
  return std::hash<std::string_view>{}(
      std::string_view(reinterpret_cast<const char*>(&b), sizeof b));
}

std::uint32_t DrainLog::intern(const Body& b) {
  if (2 * (bodies_.size() + 1) > slots_.size())
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash(b) & mask;; s = (s + 1) & mask) {
    std::uint32_t& slot = slots_[s];
    if (slot == kFree) {
      if (bodies_.size() >= kFree)
        throw std::length_error("DrainLog: more than 2^32 - 1 bodies");
      slot = static_cast<std::uint32_t>(bodies_.size());
      bodies_.push_back(b);
      return slot;
    }
    if (std::memcmp(&bodies_[slot], &b, sizeof b) == 0) return slot;
  }
}

void DrainLog::rehash(std::size_t n_slots) {
  slots_.assign(n_slots, kFree);
  const std::size_t mask = n_slots - 1;
  for (std::size_t id = 0; id < bodies_.size(); ++id) {
    std::size_t s = hash(bodies_[id]) & mask;
    while (slots_[s] != kFree) s = (s + 1) & mask;
    slots_[s] = static_cast<std::uint32_t>(id);
  }
}

// ---------------------------------------------------------------------
// Admission layer.
// ---------------------------------------------------------------------

LatencySummary summarize_latency(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return summarize_sorted({}, xs);
}

double ServingReport::amortized_transfer_ms() const {
  double sum = 0;
  for (const DrainRecord& d : drains) sum += d.transfer_ms;
  return sum;
}

double ServingReport::summed_solo_transfer_ms() const {
  double sum = 0;
  for (const DrainRecord& d : drains) sum += d.solo_transfer_ms;
  return sum;
}

ServingSession::ServingSession(ServingConfig cfg) : cfg_(std::move(cfg)) {
  auto require = [](std::size_t v, const char* field) {
    if (v == 0)
      throw std::invalid_argument(std::string("ServingSession: ") + field +
                                  " must be >= 1");
  };
  require(cfg_.drain.max_batch, "drain.max_batch");
  require(cfg_.devices, "devices");
  require(cfg_.queue_capacity, "queue_capacity");
  device_free_ms_.assign(cfg_.devices, 0.0);
  ring_.resize(cfg_.queue_capacity);
}

ServingSession::DecisionKey ServingSession::decision_key(
    const LaunchSpec& spec) {
  return {spec.kernel.get(), spec.mode};
}

bool ServingSession::submit(QuerySet q, double arrival_ms) {
  if (!q.spec.kernel || !q.spec.space)
    throw std::invalid_argument(
        "ServingSession::submit: QuerySet is missing its kernel or address "
        "space");
  if (any_arrival_ && arrival_ms < last_arrival_ms_)
    throw std::invalid_argument(
        "ServingSession::submit: arrival times must be non-decreasing");
  if (submitted_ == UINT32_MAX)
    throw std::length_error(
        "ServingSession::submit: a session takes at most 2^32 - 1 queries");
  if (!any_arrival_) {
    first_arrival_ms_ = arrival_ms;
    any_arrival_ = true;
  }
  last_arrival_ms_ = arrival_ms;
  ++submitted_;
  // Fire every wave that starts before this arrival; a wave starting at
  // exactly this stamp waits, so the new query can still join it.
  advance_to(arrival_ms);
  if (count_ == ring_.size()) {
    ++dropped_;
    return false;
  }
  ring_[(head_ + count_) % ring_.size()] =
      Pending{std::move(q), arrival_ms};
  ++count_;
  queue_depth_max_ = std::max(queue_depth_max_, count_);
  queue_depth_stats_.add(static_cast<double>(count_));
  return true;
}

std::size_t ServingSession::earliest_device() const {
  // min_element returns the first minimum: ties go to the lowest index.
  return static_cast<std::size_t>(
      std::min_element(device_free_ms_.begin(), device_free_ms_.end()) -
      device_free_ms_.begin());
}

double ServingSession::next_start_ms() const {
  return std::max(front().arrival_ms, device_free_ms_[earliest_device()]);
}

void ServingSession::advance_to(double now_ms) {
  while (count_ > 0) {
    const double start = next_start_ms();
    if (start >= now_ms) break;
    fire(start);
  }
}

void ServingSession::flush() {
  while (count_ > 0) fire(next_start_ms());
}

ServingSession::Pending ServingSession::pop_front() {
  Pending p = std::move(ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  --count_;
  return p;
}

void ServingSession::fire(double start_ms) {
  const std::size_t n = std::min(cfg_.drain.max_batch, count_);
  if (n == 0) return;
  DrainRecord rec;
  // Route the wave to the earliest-free device; next_start_ms() never
  // starts a wave before that device is free, so the wave dispatches at
  // start_ms. Dispatch times stay non-decreasing across drains: each fire
  // only raises one entry of the free array, so its minimum never moves
  // backwards, and arrivals are non-decreasing by the admission contract.
  const std::size_t device = earliest_device();
  rec.device = static_cast<std::uint32_t>(device);
  rec.dispatch_ms = start_ms;
  rec.queue_depth_before = static_cast<std::uint32_t>(count_);
  rec.n_queries = static_cast<std::uint32_t>(n);

  wave_.clear();
  for (std::size_t i = 0; i < n; ++i) wave_.push_back(pop_front());

  // Classify cold (execute) vs warm (replay the decided measurements). A
  // query whose pair is decided runs as the decided composition: replayed,
  // or -- with replay off, its own sinks, or a wave that opens Chrome
  // tracks so the trace shows real warp activity -- executed as that
  // concrete mode, never sampling again. Keeping the executed stats is
  // always sound: batching is results-neutral, so they match what solo
  // would measure. Only cold launches copy their spec.
  constexpr std::size_t kMaxDrainTracks = 32;  // traced drains per session
  const std::size_t drain_index = drains_->size();
  const bool tracing = cfg_.chrome && drain_index < kMaxDrainTracks;
  admits_.assign(n, Measured{});
  cold_.clear();
  cold_to_admit_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const LaunchSpec& spec = wave_[i].q.spec;
    const auto decided = decisions_.find(decision_key(spec));
    const bool own_sinks = spec.trace != nullptr || spec.profile != nullptr;
    if (decided != decisions_.end() && cfg_.reuse_identical && !own_sinks &&
        !tracing) {
      admits_[i] = decided->second.measured;
      continue;
    }
    cold_to_admit_.push_back(i);
    cold_.push_back(spec);
    if (decided != decisions_.end()) cold_.back().mode = decided->second.mode;
    if (tracing && !spec.trace)
      cold_.back().trace = &cfg_.chrome->begin_launch(
          "drain" + std::to_string(drain_index) + "/" + spec.kernel->name());
  }

  LaunchPool pool;
  if (!cold_.empty()) pool = run_launch_pool(cold_, cfg_.device);
  rec.cold_launches = static_cast<std::uint32_t>(cold_.size());

  for (std::size_t c = 0; c < cold_.size(); ++c) {
    const LaunchResult& r = pool.launches[c];
    Measured& m = admits_[cold_to_admit_[c]];
    m.shape = pool.shapes[c];
    m.total_ms = r.ok() ? r.time.total_ms : 0.0;
    m.ok = r.ok();
    // A pair's first execution decides it; its own charge above keeps the
    // prologue, the decision's measurement does not. Pins the handle: the
    // key is its address (see Decision).
    const LaunchSpec& spec = wave_[cold_to_admit_[c]].q.spec;
    Measured dispatched = m;
    dispatched.total_ms = r.ok() ? r.time.kernel_ms() : 0.0;
    decisions_.try_emplace(
        decision_key(spec),
        Decision{spec.kernel, dispatched_mode(spec.mode, r.variant),
                 dispatched});
  }
  cold_.clear();

  // Schedule accounting over the whole wave, warm launches included: the
  // modelled device still runs them; only the re-simulation was skipped.
  shapes_.clear();
  for (const Measured& m : admits_) shapes_.push_back(m.shape);
  const WaveSchedule ws = wave_schedule(shapes_);
  rec.residency = static_cast<std::uint32_t>(ws.residency);
  rec.total_chunks = static_cast<std::uint32_t>(ws.total_chunks);
  rec.rounds = static_cast<std::uint32_t>(ws.rounds);
  rec.switches = static_cast<std::uint32_t>(ws.switches);

  // One amortized round trip for the wave vs what solo dispatch would pay.
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  for (const Pending& p : wave_) {
    up += p.q.upload_bytes;
    down += p.q.download_bytes;
    rec.solo_transfer_ms += cfg_.transfer.round_trip_ms(
        p.q.upload_bytes, p.q.download_bytes, 1);
  }
  rec.transfer_ms = cfg_.transfer.round_trip_ms(up, down, 1);
  for (const Measured& m : admits_) rec.compute_ms += m.total_ms;

  const std::uint32_t body = drains_->append(rec);
  if (body == unwaited_.size()) unwaited_.push_back(0);

  // The wave's chunks interleave, so every query retires with the wave,
  // at dispatch + the wave's transfer + its summed compute. A latency is
  // summed as (queueing + transfer + compute) rather than
  // completion - arrival: mathematically identical, but immune to the
  // big-minus-big cancellation that would make a query's latency depend
  // on how far into the trace it arrived.
  last_completion_ms_ =
      std::max(last_completion_ms_,
               rec.dispatch_ms + rec.transfer_ms + rec.compute_ms);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const std::uint64_t service_bits = bits(rec.service_ms());
  for (std::size_t i = 0; i < n; ++i) {
    const double queued = rec.dispatch_ms - wave_[i].arrival_ms;
    const double latency = queued + rec.transfer_ms + rec.compute_ms;
    // Only a query whose delay and latency the body gives back exactly
    // (+0.0 and service_ms) is a count; any other keeps its own record.
    if (bits(queued) == 0 && bits(latency) == service_bits) {
      ++unwaited_[body];
    } else {
      // Fits: submit() admits fewer than 2^32 queries per session.
      waited_.push_back(static_cast<std::uint32_t>(latencies_.size()));
      waited_delay_ms_.push_back(queued);
    }
    latencies_.push_back(latency);
    if (!admits_[i].ok) ++failed_;
  }
  wave_.clear();
  device_free_ms_[device] = rec.dispatch_ms + rec.service_ms();
  busy_ms_ += rec.service_ms();
}

ServingReport ServingSession::report() {
  ServingReport r;
  r.devices = cfg_.devices;
  r.submitted = submitted_;
  r.completed = latencies_.size();
  r.dropped = dropped_;
  r.failed = failed_;
  r.first_arrival_ms = first_arrival_ms_;
  r.last_completion_ms = last_completion_ms_;
  r.busy_ms = busy_ms_;
  r.queue_depth_max = queue_depth_max_;
  r.queue_depth = queue_depth_stats_.summary();
  // Each summary merges the unwaited queries, as runs, with the sorted
  // values of the queries that waited: an unwaited query's latency is its
  // body's service_ms and its delay is +0.0.
  std::vector<LatencyRun> runs;  // one per body, not per query
  for (std::uint32_t b = 0; b < unwaited_.size(); ++b)
    if (unwaited_[b] > 0)
      runs.push_back({drains_->service_ms(b), unwaited_[b]});
  std::ranges::sort(runs, {}, &LatencyRun::value);
  const auto latency_of = [this](std::uint32_t q) { return latencies_[q]; };
  std::ranges::sort(waited_, {}, latency_of);
  r.latency =
      summarize_sorted(runs, waited_ | std::views::transform(latency_of));
  std::ranges::sort(waited_delay_ms_);
  const LatencyRun zero{0.0, latencies_.size() - waited_.size()};
  r.queue_delay = summarize_sorted(std::span(&zero, 1), waited_delay_ms_);
  r.drains = DrainLogView(drains_);
  return r;
}

// ---------------------------------------------------------------------
// Arrival traces.
// ---------------------------------------------------------------------

std::vector<double> poisson_trace(std::size_t n, double rate_qps,
                                  std::uint64_t seed) {
  if (!(rate_qps > 0))
    throw std::invalid_argument("poisson_trace: rate_qps must be > 0");
  Pcg32 rng(seed, 0x5e59c1a7);  // own stream: trace draws stay stable
  std::vector<double> ts(n);
  const double scale = 1e3 / rate_qps;
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.next_double()) * scale;
    ts[i] = t;
  }
  return ts;
}

std::vector<double> bursty_trace(std::size_t n, double on_rate_qps,
                                 double on_ms, double off_ms,
                                 std::uint64_t seed) {
  if (!(on_rate_qps > 0) || !(on_ms > 0) || off_ms < 0)
    throw std::invalid_argument(
        "bursty_trace: need on_rate_qps > 0, on_ms > 0, off_ms >= 0");
  Pcg32 rng(seed, 0xb1257a1e);
  std::vector<double> ts(n);
  const double scale = 1e3 / on_rate_qps;
  const double period = on_ms + off_ms;
  // The Poisson clock only ticks during ON windows; map cumulative ON
  // time to wall time by inserting one OFF gap per completed window.
  double on_elapsed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    on_elapsed += -std::log(1.0 - rng.next_double()) * scale;
    const double k = std::floor(on_elapsed / on_ms);
    ts[i] = k * period + (on_elapsed - k * on_ms);
  }
  return ts;
}

}  // namespace tt
