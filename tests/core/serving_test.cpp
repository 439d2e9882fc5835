// The admission--dispatch layer (core/serving.h): work-conserving wave
// formation and routing, the one wave model (every query of a wave
// retires with it), the wave's round-robin chunk schedule, ring-buffer
// drops, config validation, the shared dictionary-encoded drain log,
// warm-replay exactness, one section-4.4 decision per session, arrival
// trace determinism, the exact percentile summaries report() builds
// without copying a series, and the zero-delay sanity anchor -- a query
// served alone must pay exactly its solo transfer + modelled compute.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_algos/harness.h"
#include "bench_algos/nn/nearest_neighbor.h"
#include "bench_algos/pc/point_correlation.h"
#include "core/gpu_executors.h"
#include "core/serving.h"
#include "data/generators.h"
#include "data/sorting.h"
#include "obs/chrome_trace.h"
#include "spatial/kdtree.h"

namespace tt {
namespace {

struct ServingFixtures {
  PointSet pc_pts;
  KdTree pc_tree;
  GpuAddressSpace pc_space;
  float pc_radius = 0;
  std::unique_ptr<PointCorrelationKernel> pc;

  PointSet nn_pts;
  KdTreeNN nn_tree;
  GpuAddressSpace nn_space;
  std::unique_ptr<NnKernel> nn;

  ServingFixtures() {
    pc_pts = gen_covtype_like(400, 7, 91);
    pc_tree = build_kdtree(pc_pts, 8);
    pc_radius = pc_pick_radius(pc_pts, 16, 91);
    pc = std::make_unique<PointCorrelationKernel>(pc_tree, pc_pts, pc_radius,
                                                  pc_space);
    nn_pts = gen_uniform(350, 5, 92);
    nn_tree = build_kdtree_nn(nn_pts);
    nn = std::make_unique<NnKernel>(nn_tree, nn_pts, nn_space);
  }

  [[nodiscard]] QuerySet pc_query(std::uint64_t up = 4096,
                                  std::uint64_t down = 1024) {
    QuerySet q;
    q.spec.kernel = make_kernel_handle(*pc);
    q.spec.space = &pc_space;
    q.spec.mode = GpuMode::from(Variant::kAutoNolockstep);
    q.upload_bytes = up;
    q.download_bytes = down;
    return q;
  }

  [[nodiscard]] QuerySet nn_query(std::uint64_t up = 2048,
                                  std::uint64_t down = 512) {
    QuerySet q;
    q.spec.kernel = make_kernel_handle(*nn);
    q.spec.space = &nn_space;
    q.spec.mode = GpuMode::from(Variant::kAutoNolockstep);
    q.upload_bytes = up;
    q.download_bytes = down;
    return q;
  }
};

ServingConfig relaxed_config() {
  ServingConfig cfg;
  cfg.drain.max_batch = 1;
  return cfg;
}

// The reference summary, spelled out independently of the library: sort
// the values one by one, sum them smallest first, and interpolate
// linearly between the order statistics around rank p / 100 * (n - 1).
LatencySummary reference_summary(std::vector<double> xs) {
  LatencySummary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  double sum = 0;
  for (double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());
  auto at = [&](double p) {
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    if (lo + 1 >= xs.size()) return xs.back();
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
  };
  s.p50 = at(50);
  s.p95 = at(95);
  s.p99 = at(99);
  s.max = xs.back();
  return s;
}

// Every field of two summaries compared by its bits.
testing::AssertionResult same_summary(const LatencySummary& a,
                                      const LatencySummary& b) {
  auto differs = [](const auto& x, const auto& y) {
    return std::memcmp(&x, &y, sizeof x) != 0;
  };
  testing::AssertionResult bad = testing::AssertionFailure();
  bool ok = true;
  auto field = [&](const char* name, const auto& x, const auto& y) {
    if (!differs(x, y)) return;
    ok = false;
    bad << name << " " << x << " vs " << y << "; ";
  };
  field("count", a.count, b.count);
  field("mean", a.mean, b.mean);
  field("p50", a.p50, b.p50);
  field("p95", a.p95, b.p95);
  field("p99", a.p99, b.p99);
  field("max", a.max, b.max);
  return ok ? testing::AssertionSuccess() : bad;
}

// The queue delays the drain log implies: waves serve the admitted
// queries in FIFO order, so drain k's queries are the next n_queries
// arrivals, each delayed dispatch_ms - arrival.
std::vector<double> delays_from_drains(const ServingReport& r,
                                       const std::vector<double>& arrivals) {
  std::vector<double> delays;
  for (const DrainRecord& d : r.drains)
    for (std::uint32_t k = 0; k < d.n_queries; ++k)
      delays.push_back(d.dispatch_ms - arrivals.at(delays.size()));
  return delays;
}

// report()'s summaries are the reference's, bit for bit, over the
// session's latencies and the delays its log implies.
void expect_exact_summaries(ServingSession& session,
                            const std::vector<double>& arrivals) {
  const ServingReport r = session.report();
  EXPECT_TRUE(
      same_summary(r.latency, reference_summary(session.latencies_ms())));
  const std::vector<double> delays = delays_from_drains(r, arrivals);
  EXPECT_EQ(delays.size(), r.completed);
  EXPECT_TRUE(same_summary(r.queue_delay, reference_summary(delays)));
}

// ---------------------------------------------------------------------
// The sanity anchor: a query served alone, with no batching delay and an
// idle device, completes at exactly its solo transfer + modelled compute.
// ---------------------------------------------------------------------

TEST(ServingSession, ZeroDelayMatchesSoloTransferPlusCompute) {
  ServingFixtures f;
  const GpuMode mode = GpuMode::from(Variant::kAutoNolockstep);
  const auto solo = run_gpu_sim(*f.pc, f.pc_space, DeviceConfig{}, mode);

  ServingConfig cfg = relaxed_config();
  ServingSession session(cfg);
  // Arrivals spaced far wider than any service time: every wave finds the
  // device idle, so queueing contributes nothing.
  const std::vector<double> arrivals = {0.0, 100.0, 200.0};
  for (double arrival : arrivals)
    ASSERT_TRUE(session.submit(f.pc_query(), arrival));
  session.flush();

  const double expect =
      cfg.transfer.round_trip_ms(4096, 1024, 1) + solo.time.total_ms;
  ASSERT_EQ(session.latencies_ms().size(), 3u);
  for (double lat : session.latencies_ms()) EXPECT_EQ(lat, expect);

  const ServingReport r = session.report();
  for (double qd : delays_from_drains(r, arrivals)) EXPECT_EQ(qd, 0.0);
  expect_exact_summaries(session, arrivals);
  EXPECT_EQ(r.submitted, 3u);
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.failed, 0u);
  ASSERT_EQ(r.drains.size(), 3u);
  for (const DrainRecord& d : r.drains) {
    EXPECT_EQ(d.n_queries, 1u);
    EXPECT_EQ(d.transfer_ms, d.solo_transfer_ms);  // wave of one saves nothing
  }
  EXPECT_EQ(r.latency.p50, expect);
  EXPECT_EQ(r.latency.max, expect);
}

// ---------------------------------------------------------------------
// Work-conserving drains: a wave starts at max(oldest pending arrival,
// earliest device-free time) and takes up to max_batch waiting queries.
// ---------------------------------------------------------------------

TEST(ServingSession, IdleDeviceDispatchesAtArrival) {
  ServingFixtures f;
  {
    SCOPED_TRACE("one device, spaced arrivals");
    ServingSession session(ServingConfig{});  // max_batch 8: no waiting
    const std::vector<double> arrivals = {0.0, 10.0, 20.0};
    for (double arrival : arrivals)
      ASSERT_TRUE(session.submit(f.pc_query(), arrival));
    session.flush();
    const ServingReport r = session.report();
    ASSERT_EQ(r.drains.size(), 3u);
    EXPECT_EQ(r.drains[0].dispatch_ms, 0.0);
    EXPECT_EQ(r.drains[1].dispatch_ms, 10.0);
    EXPECT_EQ(r.drains[2].dispatch_ms, 20.0);
    for (double qd : delays_from_drains(r, arrivals)) EXPECT_EQ(qd, 0.0);
    EXPECT_EQ(r.queue_delay.max, 0.0);
    expect_exact_summaries(session, arrivals);
  }
  {
    SCOPED_TRACE("two devices, device 0 busy");
    ServingConfig cfg;
    cfg.devices = 2;
    ServingSession session(cfg);
    const std::vector<double> arrivals = {0.0, 1e-6};
    ASSERT_TRUE(session.submit(f.pc_query(), arrivals[0]));
    ASSERT_TRUE(session.submit(f.pc_query(), arrivals[1]));  // fires the first
    session.flush();
    const ServingReport r = session.report();
    ASSERT_EQ(r.drains.size(), 2u);
    EXPECT_EQ(r.drains[0].device, 0u);
    EXPECT_EQ(r.drains[0].dispatch_ms, 0.0);
    ASSERT_GT(r.drains[0].service_ms(), 1e-6);  // device 0 still busy
    EXPECT_EQ(r.drains[1].device, 1u);
    EXPECT_EQ(r.drains[1].dispatch_ms, 1e-6);
    EXPECT_EQ(r.drains[1].n_queries, 1u);
    for (double qd : delays_from_drains(r, arrivals)) EXPECT_EQ(qd, 0.0);
    EXPECT_EQ(r.queue_delay.max, 0.0);
    expect_exact_summaries(session, arrivals);
  }
}

TEST(ServingSession, BusyDeviceReleasesTheBacklogInCappedWaves) {
  ServingFixtures f;
  ServingConfig cfg;
  cfg.drain.max_batch = 3;
  ServingSession session(cfg);
  // q0 starts on the idle device at t = 0; q1..q5 arrive while it is
  // busy, so they wait and leave together when it frees up -- three in
  // the first wave (the cap), the other two in the next.
  std::vector<double> arrivals;
  for (int i = 0; i < 6; ++i) {
    arrivals.push_back(1e-6 * i);
    ASSERT_TRUE(session.submit(f.pc_query(), arrivals.back()));
  }
  EXPECT_EQ(session.pending(), 5u);
  session.flush();
  const ServingReport r = session.report();
  ASSERT_EQ(r.drains.size(), 3u);
  EXPECT_EQ(r.drains[0].n_queries, 1u);
  EXPECT_EQ(r.drains[0].dispatch_ms, 0.0);
  ASSERT_GT(r.drains[0].service_ms(), 5e-6);
  EXPECT_EQ(r.drains[1].n_queries, 3u);
  EXPECT_EQ(r.drains[1].queue_depth_before, 5u);
  EXPECT_EQ(r.drains[1].dispatch_ms,
            r.drains[0].dispatch_ms + r.drains[0].service_ms());
  EXPECT_EQ(r.drains[2].n_queries, 2u);
  EXPECT_EQ(r.drains[2].queue_depth_before, 2u);
  EXPECT_EQ(r.drains[2].dispatch_ms,
            r.drains[1].dispatch_ms + r.drains[1].service_ms());
  const std::vector<double> delays = delays_from_drains(r, arrivals);
  ASSERT_EQ(delays.size(), 6u);
  EXPECT_EQ(delays[0], 0.0);
  EXPECT_EQ(delays[1], r.drains[1].dispatch_ms - 1e-6);
  // The longest wait: q4, the first query of the last wave.
  EXPECT_EQ(r.queue_delay.max, r.drains[2].dispatch_ms - 1e-6 * 4);
  expect_exact_summaries(session, arrivals);
}

// Replays the device clocks from the drain log and checks every wave
// against the policy: it starts at max(its first query's arrival, the
// earliest device-free time) on that device (ties to the lowest index),
// and takes every query that has arrived by then, up to max_batch.
// Checked over a Poisson and a bursty trace on two devices, both loaded
// enough that some waves batch and both devices serve.
TEST(ServingSession, EveryWaveStartsAtTheEarliestFreeDevice) {
  ServingFixtures f;
  const QuerySet pc = f.pc_query();
  const QuerySet nn = f.nn_query();
  auto check = [&](const std::vector<double>& trace) {
    ServingConfig cfg;
    cfg.devices = 2;
    cfg.drain.max_batch = 4;
    ServingSession session(cfg);
    for (std::size_t i = 0; i < trace.size(); ++i)
      ASSERT_TRUE(session.submit(i % 3 ? pc : nn, trace[i]));
    session.flush();
    const ServingReport r = session.report();
    std::vector<double> free_ms(cfg.devices, 0.0);
    std::size_t first = 0;
    std::size_t batched = 0;
    std::size_t on_device1 = 0;
    for (std::size_t k = 0; k < r.drains.size(); ++k) {
      SCOPED_TRACE("drain " + std::to_string(k));
      const DrainRecord& d = r.drains[k];
      const auto earliest = static_cast<std::size_t>(
          std::min_element(free_ms.begin(), free_ms.end()) - free_ms.begin());
      ASSERT_LT(first, trace.size());
      EXPECT_EQ(d.device, earliest);
      EXPECT_EQ(d.dispatch_ms, std::max(trace[first], free_ms[earliest]));
      std::size_t arrived = 0;
      while (first + arrived < trace.size() &&
             trace[first + arrived] <= d.dispatch_ms)
        ++arrived;
      EXPECT_LE(d.n_queries, cfg.drain.max_batch);
      EXPECT_EQ(d.n_queries, std::min(arrived, cfg.drain.max_batch));
      free_ms[d.device] = d.dispatch_ms + d.service_ms();
      first += d.n_queries;
      batched += d.n_queries > 1 ? 1 : 0;
      on_device1 += d.device == 1 ? 1 : 0;
    }
    EXPECT_EQ(first, trace.size());
    EXPECT_GT(batched, 0u);
    EXPECT_GT(on_device1, 0u);
  };
  {
    SCOPED_TRACE("poisson");
    check(poisson_trace(300, 60000.0, 3));
  }
  {
    SCOPED_TRACE("bursty");
    check(bursty_trace(300, 120000.0, 0.5, 1.0, 4));
  }
}

// The one wave model: a wave's queries retire together, each at its
// queueing delay + the wave's one round trip + the wave's summed compute.
// Checked query by query over a loaded two-device trace, on every wave of
// several queries -- all of which started on a device that was busy when
// their first query arrived.
TEST(ServingSession, MultiQueryWaveRetiresEveryQueryWithTheWave) {
  ServingFixtures f;
  const QuerySet pc = f.pc_query();
  const QuerySet nn = f.nn_query();
  const std::vector<double> trace = poisson_trace(300, 60000.0, 3);
  ServingConfig cfg;
  cfg.devices = 2;
  cfg.drain.max_batch = 4;
  ServingSession session(cfg);
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_TRUE(session.submit(i % 3 ? pc : nn, trace[i]));
  session.flush();
  const ServingReport r = session.report();
  const std::vector<double>& lat = session.latencies_ms();
  const std::vector<double> qd = delays_from_drains(r, trace);
  ASSERT_EQ(lat.size(), trace.size());
  ASSERT_EQ(qd.size(), trace.size());
  std::size_t first = 0;  // FIFO: drain k serves the next n_queries queries
  std::vector<std::size_t> multi_on(cfg.devices, 0);
  for (std::size_t k = 0; k < r.drains.size(); ++k) {
    const DrainRecord& d = r.drains[k];
    if (d.n_queries > 1) {
      SCOPED_TRACE("drain " + std::to_string(k));
      ++multi_on[d.device];
      EXPECT_GT(d.dispatch_ms, trace[first]);  // waited for a busy device
      EXPECT_GT(d.compute_ms, 0.0);
      for (std::size_t q = first; q < first + d.n_queries; ++q) {
        const double queued = d.dispatch_ms - trace[q];
        EXPECT_EQ(qd[q], queued) << "query " << q;
        EXPECT_EQ(lat[q], queued + d.transfer_ms + d.compute_ms)
            << "query " << q;
      }
    }
    first += d.n_queries;
  }
  EXPECT_EQ(first, trace.size());
  for (std::size_t dev = 0; dev < cfg.devices; ++dev)
    EXPECT_GT(multi_on[dev], 0u) << "device " << dev;
  expect_exact_summaries(session, trace);
}

// Past saturation the backlog is what batches: at twice the rate an
// unbatched device group can serve, waves fill to max_batch and the
// saved launch overheads buy throughput over a max_batch = 1 session.
TEST(ServingSession, OverloadFillsWavesAndBeatsUnbatchedThroughput) {
  ServingFixtures f;
  const QuerySet pc = f.pc_query();
  const QuerySet nn = f.nn_query();
  const DeviceConfig dev;
  const TransferModel transfer;
  const GpuMode mode = GpuMode::from(Variant::kAutoNolockstep);
  const double mean_solo_ms =
      0.5 * (run_gpu_sim(*f.pc, f.pc_space, dev, mode).time.total_ms +
             transfer.round_trip_ms(pc.upload_bytes, pc.download_bytes, 1) +
             run_gpu_sim(*f.nn, f.nn_space, dev, mode).time.total_ms +
             transfer.round_trip_ms(nn.upload_bytes, nn.download_bytes, 1));
  const std::size_t devices = 2;
  const double saturation_qps =
      static_cast<double>(devices) * 1e3 / mean_solo_ms;
  const std::vector<double> trace =
      poisson_trace(400, 2.0 * saturation_qps, 5);
  auto serve = [&](std::size_t max_batch) {
    ServingConfig cfg;
    cfg.devices = devices;
    cfg.drain.max_batch = max_batch;
    ServingSession session(cfg);
    for (std::size_t i = 0; i < trace.size(); ++i)
      EXPECT_TRUE(session.submit(i % 2 ? nn : pc, trace[i]));
    session.flush();
    return session.report();
  };
  const ServingReport batched = serve(8);
  const ServingReport single = serve(1);
  ASSERT_EQ(batched.completed, trace.size());
  ASSERT_EQ(single.completed, trace.size());
  std::size_t full = 0;
  for (const DrainRecord& d : batched.drains) full += d.n_queries == 8u;
  EXPECT_GT(full, 0u);
  EXPECT_GT(batched.throughput_qps(), single.throughput_qps());
}

// ---------------------------------------------------------------------
// The drain log: a report's drains are a view of the session's
// append-only log -- no copy, and still valid (same count, same values)
// after later submits and after the session is gone.
// ---------------------------------------------------------------------

TEST(ServingSession, ReportKeepsItsDrainsAfterSubmitsAndSessionEnd) {
  ServingFixtures f;
  const QuerySet pc = f.pc_query();
  auto session = std::make_unique<ServingSession>(relaxed_config());
  for (double arrival : {0.0, 10.0, 20.0})
    ASSERT_TRUE(session->submit(pc, arrival));
  const ServingReport mid = session->report();  // drains at 0 and 10
  ASSERT_EQ(mid.drains.size(), 2u);
  const std::vector<DrainRecord> mid_copy(mid.drains.begin(),
                                          mid.drains.end());
  for (double arrival : {30.0, 40.0, 50.0})
    ASSERT_TRUE(session->submit(pc, arrival));
  session->flush();
  const ServingReport all = session->report();
  ASSERT_EQ(all.drains.size(), 6u);
  session.reset();

  auto same = [](const DrainRecord& a, const DrainRecord& b) {
    return a.dispatch_ms == b.dispatch_ms && a.transfer_ms == b.transfer_ms &&
           a.compute_ms == b.compute_ms && a.n_queries == b.n_queries &&
           a.cold_launches == b.cold_launches && a.device == b.device;
  };
  ASSERT_EQ(mid.drains.size(), 2u);
  for (std::size_t i = 0; i < mid_copy.size(); ++i) {
    EXPECT_TRUE(same(mid.drains[i], mid_copy[i])) << "drain " << i;
    EXPECT_TRUE(same(all.drains[i], mid_copy[i])) << "drain " << i;
  }
  EXPECT_EQ(mid.drains.front().dispatch_ms, 0.0);
  EXPECT_EQ(mid.drains.back().dispatch_ms, 10.0);
  EXPECT_EQ(all.drains.back().dispatch_ms, 50.0);
}

// ---------------------------------------------------------------------
// A wave's chunk schedule: its launches' strip-mined rounds interleave
// round-robin.
// ---------------------------------------------------------------------

// The launch index of every chunk of launches with (n_warps, grid)
// shapes, built chunk by chunk: round r issues chunks [r * grid,
// (r + 1) * grid) of every launch that has them, in launch order -- the
// reference wave_schedule's counts must match.
std::vector<std::size_t> interleave(
    const std::vector<std::pair<std::size_t, std::size_t>>& shapes) {
  std::vector<std::size_t> order;
  for (std::size_t r = 0;; ++r) {
    const std::size_t before = order.size();
    for (std::size_t l = 0; l < shapes.size(); ++l) {
      const auto [n_warps, grid] = shapes[l];
      for (std::size_t c = r * grid; c < std::min(n_warps, (r + 1) * grid);
           ++c)
        order.push_back(l);
    }
    if (order.size() == before) return order;
  }
}

std::size_t switches_of(const std::vector<std::size_t>& order) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < order.size(); ++i)
    if (order[i] != order[i - 1]) ++n;
  return n;
}

WaveSchedule schedule_of(
    const std::vector<std::pair<std::size_t, std::size_t>>& shapes) {
  std::vector<LaunchGeometry> geometry;
  for (const auto& [n_warps, grid] : shapes) {
    LaunchGeometry g;
    g.n_warps = n_warps;
    g.grid = grid;
    geometry.push_back(g);
  }
  return wave_schedule(geometry);
}

TEST(WaveSchedule, RoundRobinInterleavesWaves) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {4, 2},   // 2 rounds of 2 chunks
      {3, 1}};  // 3 rounds of 1 chunk
  const std::vector<std::size_t> order = interleave(shapes);
  // round 0: L0{0,1} L1{0}; round 1: L0{2,3} L1{1}; round 2: L1{2}.
  ASSERT_EQ(order, (std::vector<std::size_t>{0, 0, 1, 0, 0, 1, 1}));
  const WaveSchedule s = schedule_of(shapes);
  EXPECT_EQ(s.residency, 3u);
  EXPECT_EQ(s.total_chunks, order.size());
  EXPECT_EQ(s.rounds, 3u);  // the most rounds of any launch
  EXPECT_EQ(s.switches, 3u);  // at indices 2, 3 and 5

  // Wider waves of unequal grids, including launches that drop out early,
  // one whose grid covers it in a single round, and a failed launch (zero
  // shape, no chunks).
  for (const std::vector<std::pair<std::size_t, std::size_t>>& wide :
       {std::vector<std::pair<std::size_t, std::size_t>>{
            {5, 2}, {1, 4}, {9, 3}, {2, 1}, {7, 7}},
        std::vector<std::pair<std::size_t, std::size_t>>{
            {16, 3}, {0, 0}, {15, 3}, {40, 16}},
        std::vector<std::pair<std::size_t, std::size_t>>{
            {3, 1}, {3, 1}, {1, 1}}}) {
    const std::vector<std::size_t> wide_order = interleave(wide);
    const WaveSchedule ws = schedule_of(wide);
    std::size_t residency = 0;
    std::size_t rounds = 0;
    for (const auto& [n_warps, grid] : wide) {
      residency += grid;
      if (grid > 0) rounds = std::max(rounds, (n_warps + grid - 1) / grid);
    }
    EXPECT_EQ(ws.residency, residency);
    EXPECT_EQ(ws.total_chunks, wide_order.size());
    EXPECT_EQ(ws.rounds, rounds);
    EXPECT_EQ(ws.switches, switches_of(wide_order));
  }

  const WaveSchedule none = wave_schedule({});
  EXPECT_EQ(none.residency + none.total_chunks + none.rounds + none.switches,
            0u);
}

// The log keeps a 12-byte entry per wave (dispatch_ms and a body id) and
// interns the rest of the record, queue_depth_before included, by exact
// bits: records that differ in one field -- by one ulp, or by the sign of
// a zero -- read back bit for bit through every accessor, and only a body
// that differs is stored again. (DrainRecord has no padding, so memcmp
// compares exactly its fields' bits.)
static_assert(std::forward_iterator<DrainLogView::iterator>);

TEST(DrainLog, RoundTripsEveryFieldBitForBit) {
  DrainRecord base;
  base.dispatch_ms = 1.5;
  base.transfer_ms = 0.0187;
  base.solo_transfer_ms = 0.0374;
  base.compute_ms = 0.0518;
  base.device = 1;
  base.n_queries = 2;
  base.queue_depth_before = 3;
  base.cold_launches = 1;
  base.residency = 2;
  base.total_chunks = 8;
  base.rounds = 1;
  base.switches = 1;
  std::vector<DrainRecord> recs = {base};
  auto vary = [&](auto edit) {
    DrainRecord r = base;
    edit(r);
    recs.push_back(r);
  };
  auto next_up = [](double& x) {
    x = std::nextafter(x, std::numeric_limits<double>::infinity());
  };
  // The entry field: this shares base's body.
  vary([&](DrainRecord& r) { next_up(r.dispatch_ms); });
  // Every body field: each of these is a body of its own.
  vary([](DrainRecord& r) { ++r.queue_depth_before; });
  vary([&](DrainRecord& r) { next_up(r.transfer_ms); });
  vary([&](DrainRecord& r) { next_up(r.solo_transfer_ms); });
  vary([&](DrainRecord& r) { next_up(r.compute_ms); });
  vary([](DrainRecord& r) { ++r.device; });
  vary([](DrainRecord& r) { ++r.n_queries; });
  vary([](DrainRecord& r) { ++r.cold_launches; });
  vary([](DrainRecord& r) { ++r.residency; });
  vary([](DrainRecord& r) { ++r.total_chunks; });
  vary([](DrainRecord& r) { ++r.rounds; });
  vary([](DrainRecord& r) { ++r.switches; });
  vary([](DrainRecord& r) { r.transfer_ms = 0.0; });
  vary([](DrainRecord& r) { r.transfer_ms = -0.0; });  // == 0.0, other bits
  // A pair of waves that differ only in the queue depth they found: two
  // bodies, one per depth.
  vary([](DrainRecord& r) {
    r.n_queries = 8;
    r.queue_depth_before = 8;
  });
  vary([](DrainRecord& r) {
    r.n_queries = 8;
    r.queue_depth_before = 4000;
  });
  recs.push_back(base);  // a repeat shares base's body too

  auto log = std::make_shared<DrainLog>();
  std::vector<std::uint32_t> ids;
  for (const DrainRecord& r : recs) ids.push_back(log->append(r));
  const DrainLogView view(log);
  // Ids are dense, in order of first appearance, and every record built
  // from an id has that id's service_ms, bit for bit.
  std::uint32_t next_id = 0;
  for (std::size_t k = 0; k < recs.size(); ++k) {
    SCOPED_TRACE("record " + std::to_string(k));
    if (ids[k] == next_id) ++next_id;
    EXPECT_LT(ids[k], next_id);
    const double service = log->service_ms(ids[k]);
    const double expect = recs[k].service_ms();
    EXPECT_EQ(std::memcmp(&service, &expect, sizeof service), 0);
  }
  EXPECT_EQ(ids[1], ids[0]);      // dispatch_ms alone
  EXPECT_NE(ids[2], ids[0]);      // queue_depth_before alone
  EXPECT_EQ(ids.back(), ids[0]);  // the repeat
  EXPECT_EQ(next_id, log->bodies());
  auto same_bits = [](const DrainRecord& a, const DrainRecord& b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  ASSERT_EQ(view.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i)
    EXPECT_TRUE(same_bits(view[i], recs[i])) << "record " << i;
  std::size_t i = 0;
  for (const DrainRecord& r : view) {
    ASSERT_LT(i, recs.size());
    EXPECT_TRUE(same_bits(r, recs[i])) << "iterated record " << i;
    ++i;
  }
  EXPECT_EQ(i, recs.size());
  EXPECT_TRUE(same_bits(view.front(), recs.front()));
  EXPECT_TRUE(same_bits(view.back(), recs.back()));
  const std::vector<DrainRecord> copy(view.begin(), view.end());
  ASSERT_EQ(copy.size(), view.size());
  for (std::size_t k = 0; k < copy.size(); ++k)
    EXPECT_TRUE(same_bits(copy[k], view[k])) << "copied record " << k;
  EXPECT_EQ(view.interned_bodies(), recs.size() - 2);

  // A view is a prefix: later appends change neither its count nor its
  // bodies.
  DrainRecord later = base;
  next_up(later.compute_ms);
  next_up(later.compute_ms);
  EXPECT_EQ(log->append(later), recs.size() - 2);  // the next id
  EXPECT_EQ(view.size(), recs.size());
  EXPECT_EQ(view.interned_bodies(), recs.size() - 2);
  EXPECT_EQ(DrainLogView(log).interned_bodies(), recs.size() - 1);
}

// At light load every wave is one query on an idle device, so a long
// session's log holds two bodies per (kernel, mode) pair -- its cold wave
// and the warm one every replay repeats -- however many queries it serves.
// (One device: on two, an idle group alternates, since the earliest-free
// device is the one idle longest.)
TEST(ServingSession, LightLoadInternsOneColdAndOneWarmBodyPerPair) {
  ServingFixtures f;
  std::vector<QuerySet> pool = {f.pc_query(), f.nn_query(), f.pc_query(),
                                f.nn_query()};
  pool[2].spec.mode = GpuMode::from(Variant::kRecLockstep);
  pool[3].spec.mode = GpuMode::from(Variant::kRecLockstep);
  ServingSession session(ServingConfig{});
  const std::size_t n = 10000;
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(session.submit(pool[i % pool.size()], static_cast<double>(i)));
  session.flush();
  const ServingReport r = session.report();
  ASSERT_EQ(r.drains.size(), n);
  std::set<double> warm_compute_ms;
  std::size_t cold = 0;
  for (const DrainRecord& d : r.drains) {
    EXPECT_EQ(d.device, 0u);
    EXPECT_EQ(d.n_queries, 1u);
    cold += d.cold_launches;
    if (d.cold_launches == 0) warm_compute_ms.insert(d.compute_ms);
  }
  EXPECT_EQ(cold, pool.size());
  ASSERT_EQ(warm_compute_ms.size(), pool.size());  // the pairs measure apart
  EXPECT_EQ(r.drains.interned_bodies(), 2 * pool.size());
}

// ---------------------------------------------------------------------
// Bad configuration fails loudly, naming the field.
// ---------------------------------------------------------------------

TEST(ServingSession, RejectsZeroBatchDevicesOrCapacity) {
  auto rejects = [](ServingConfig cfg, const std::string& field) {
    try {
      ServingSession session(std::move(cfg));
      ADD_FAILURE() << field << " = 0 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  ServingConfig no_batch;
  no_batch.drain.max_batch = 0;
  rejects(no_batch, "drain.max_batch");
  ServingConfig no_devices;
  no_devices.devices = 0;
  rejects(no_devices, "devices");
  ServingConfig no_ring;
  no_ring.queue_capacity = 0;
  rejects(no_ring, "queue_capacity");
}

// ---------------------------------------------------------------------
// Admission-queue overflow: full ring drops, counted, never silent.
// ---------------------------------------------------------------------

TEST(ServingSession, FullRingDropsAndCounts) {
  ServingFixtures f;
  ServingConfig cfg;
  cfg.drain.max_batch = 100;
  cfg.queue_capacity = 2;
  ServingSession session(cfg);
  EXPECT_TRUE(session.submit(f.pc_query(), 0.0));
  EXPECT_TRUE(session.submit(f.pc_query(), 0.0));
  EXPECT_FALSE(session.submit(f.pc_query(), 0.0));
  EXPECT_FALSE(session.submit(f.pc_query(), 0.0));
  session.flush();
  const ServingReport r = session.report();
  EXPECT_EQ(r.submitted, 4u);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.dropped, 2u);
  ASSERT_EQ(r.drains.size(), 1u);
  EXPECT_EQ(r.drains[0].n_queries, 2u);
}

TEST(ServingSession, RejectsDecreasingArrivalsAndMissingKernel) {
  ServingFixtures f;
  ServingSession session(relaxed_config());
  ASSERT_TRUE(session.submit(f.pc_query(), 5.0));
  EXPECT_THROW(session.submit(f.pc_query(), 4.0), std::invalid_argument);
  QuerySet empty;
  EXPECT_THROW(session.submit(std::move(empty), 6.0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Warm replay: identical resubmissions reuse the first execution's
// measurements exactly; turning reuse off changes nothing but the cold
// launch count. (Exact by the results-neutrality contract.)
// ---------------------------------------------------------------------

TEST(ServingSession, WarmReplayIsExact) {
  ServingFixtures f;
  // Replay requires identity: the same prepared handle resubmitted, as a
  // serving pool does. (A fresh handle per query is always cold.) Two
  // pairs alternate: a concrete composition and an auto_select one.
  const QuerySet proto = f.pc_query();
  QuerySet auto_proto = f.pc_query();
  auto_proto.spec.mode = GpuMode::from(Variant::kAutoSelect);
  auto run = [&](bool reuse) {
    ServingConfig cfg = relaxed_config();
    cfg.reuse_identical = reuse;
    ServingSession session(cfg);
    for (int i = 0; i < 8; ++i) {
      QuerySet q = i % 2 ? auto_proto : proto;
      EXPECT_TRUE(session.submit(std::move(q), 100.0 * i));
    }
    session.flush();
    return session;
  };
  ServingSession warm = run(true);
  ServingSession cold = run(false);
  ASSERT_EQ(warm.latencies_ms().size(), 8u);
  EXPECT_EQ(warm.latencies_ms(), cold.latencies_ms());

  const ServingReport wr = warm.report();
  const ServingReport cr = cold.report();
  ASSERT_EQ(wr.drains.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(wr.drains[i].cold_launches, i < 2 ? 1u : 0u) << "drain " << i;
  for (const DrainRecord& d : cr.drains) EXPECT_EQ(d.cold_launches, 1u);
}

// One section-4.4 decision per session: an auto_select pair's first query
// samples and pays the prologue; every later query of the pair is charged
// the composition that launch dispatched, bit for bit what a direct launch
// of that composition reports -- whether it replays, re-executes with
// replay off, or re-executes in a wave that opens Chrome tracks. Checked
// on a Geocity-like input sorted (the decision is lockstep) and shuffled
// (non-lockstep), with arrivals spaced so every query finds the device
// idle.
TEST(ServingSession, ReplaysReuseTheDecision) {
  for (const bool sorted : {true, false}) {
    SCOPED_TRACE(sorted ? "pc sorted" : "pc shuffled");
    const std::size_t n = 1024;
    PointSet pts = gen_geocity_like(n, 42);
    pts.permute(sorted ? tree_order(pts, 8) : shuffled_order(n, 42));
    const KdTree tree = build_kdtree(pts, 8);
    GpuAddressSpace space;
    const PointCorrelationKernel pc(tree, pts, pc_pick_radius(pts, 16, 42),
                                    space);
    const DeviceConfig dev;
    const GpuMode mode = GpuMode::from(Variant::kAutoSelect);
    const auto sampled = run_gpu_sim(pc, space, dev, mode);
    ASSERT_TRUE(sampled.selection.has_value());
    const Variant decided = sampled.selection->chosen;
    EXPECT_EQ(decided,
              sorted ? Variant::kAutoLockstep : Variant::kAutoNolockstep);
    ASSERT_GT(sampled.time.select_ms, 0.0);
    const double direct_ms =
        run_gpu_sim(pc, space, dev, GpuMode::from(decided)).time.total_ms;

    const std::shared_ptr<KernelHandle> handle = make_kernel_handle(pc);
    const TransferModel transfer;
    const double round_trip = transfer.round_trip_ms(4096, 1024, 1);
    auto serve = [&](bool reuse, obs::ChromeTraceCollector* chrome) {
      ServingConfig cfg = relaxed_config();
      cfg.reuse_identical = reuse;
      cfg.chrome = chrome;
      ServingSession session(cfg);
      for (const double arrival : {0.0, 100.0, 200.0, 300.0}) {
        QuerySet q;
        q.spec.kernel = handle;
        q.spec.space = &space;
        q.spec.mode = mode;
        q.upload_bytes = 4096;
        q.download_bytes = 1024;
        EXPECT_TRUE(session.submit(std::move(q), arrival));
      }
      session.flush();
      return session;
    };
    auto expect_decided_once = [&](ServingSession session,
                                   std::size_t executed) {
      const std::vector<double>& lat = session.latencies_ms();
      ASSERT_EQ(lat.size(), 4u);
      EXPECT_EQ(lat[0], round_trip + sampled.time.total_ms);
      for (std::size_t i = 1; i < lat.size(); ++i)
        EXPECT_EQ(lat[i], round_trip + direct_ms) << "query " << i;
      std::size_t cold = 0;
      for (const DrainRecord& d : session.report().drains)
        cold += d.cold_launches;
      EXPECT_EQ(cold, executed);
    };
    {
      SCOPED_TRACE("replay on");
      expect_decided_once(serve(true, nullptr), 1);
    }
    {
      SCOPED_TRACE("replay off");
      expect_decided_once(serve(false, nullptr), 4);
    }
    {
      SCOPED_TRACE("chrome tracing");
      obs::ChromeTraceCollector chrome;
      expect_decided_once(serve(true, &chrome), 4);
      EXPECT_EQ(chrome.n_launches(), 4u);
    }
  }
}

// Replay keys on the handle AND the whole GpuMode: the same kernel under
// a different composition (or cache setting) is a different launch and
// must execute; only a true resubmission replays.
TEST(ServingSession, WarmReplayKeysOnTheWholeMode) {
  ServingFixtures f;
  const DeviceConfig dev;
  const std::shared_ptr<KernelHandle> handle = make_kernel_handle(*f.pc);
  GpuMode cache_off = GpuMode::from(Variant::kStacklessLockstep);
  cache_off.smem_node_cache = false;
  const std::vector<GpuMode> modes = {
      GpuMode::from(Variant::kRecLockstep),
      GpuMode::from(Variant::kStacklessLockstep),
      cache_off,
      GpuMode::from(Variant::kRecNolockstep),
      GpuMode::from(Variant::kStacklessNolockstep),
      GpuMode::from(Variant::kIndexWalk),
      GpuMode::from(Variant::kRecLockstep)};  // the one resubmission
  ServingSession session(relaxed_config());
  std::vector<double> solo_ms;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    // Solo first, so the session's launch finds the address space in the
    // same state (every scratch buffer already ensured).
    solo_ms.push_back(
        run_gpu_sim(*f.pc, f.pc_space, dev, modes[i]).time.total_ms);
    QuerySet q;
    q.spec.kernel = handle;
    q.spec.space = &f.pc_space;
    q.spec.mode = modes[i];
    ASSERT_TRUE(session.submit(std::move(q), 100.0 * static_cast<double>(i)));
  }
  session.flush();
  const ServingReport r = session.report();
  ASSERT_EQ(r.drains.size(), modes.size());
  for (std::size_t i = 0; i + 1 < modes.size(); ++i) {
    SCOPED_TRACE("drain " + std::to_string(i));
    EXPECT_EQ(r.drains[i].cold_launches, 1u);
    EXPECT_EQ(r.drains[i].compute_ms, solo_ms[i]);
  }
  EXPECT_EQ(r.drains.back().cold_launches, 0u);
  EXPECT_EQ(r.drains.back().compute_ms, r.drains.front().compute_ms);
}

// ---------------------------------------------------------------------
// Determinism: the same trace through two sessions yields byte-identical
// per-query series (the property the CI OMP 1-vs-4 job pins end to end).
// ---------------------------------------------------------------------

TEST(ServingSession, SameTraceSameReport) {
  ServingFixtures f;
  const std::vector<double> trace = poisson_trace(48, 3000.0, 7);
  auto run = [&]() {
    ServingConfig cfg;
    cfg.drain.max_batch = 4;
    ServingSession session(cfg);
    for (std::size_t i = 0; i < trace.size(); ++i)
      EXPECT_TRUE(
          session.submit(i % 2 ? f.nn_query() : f.pc_query(), trace[i]));
    session.flush();
    return session;
  };
  ServingSession a = run();
  ServingSession b = run();
  EXPECT_EQ(a.latencies_ms(), b.latencies_ms());
  const ServingReport ra = a.report();
  const ServingReport rb = b.report();
  EXPECT_TRUE(same_summary(ra.latency, rb.latency));
  EXPECT_TRUE(same_summary(ra.queue_delay, rb.queue_delay));
  expect_exact_summaries(a, trace);
  ASSERT_EQ(ra.drains.size(), rb.drains.size());
  for (std::size_t i = 0; i < ra.drains.size(); ++i) {
    EXPECT_EQ(ra.drains[i].dispatch_ms, rb.drains[i].dispatch_ms);
    EXPECT_EQ(ra.drains[i].n_queries, rb.drains[i].n_queries);
    EXPECT_EQ(ra.drains[i].service_ms(), rb.drains[i].service_ms());
  }
}

// Mixed-kernel waves amortize transfer: one wave of N distinct kernels
// pays one launch overhead instead of N, so it saves exactly N-1 of them.
// Two inputs: the fixture's PC+NN pair, and the five Table-1 kernels
// (first input of each, sorted) built through the harness's
// prepare_kernel under auto_select.
TEST(ServingSession, WaveTransferAmortizesLaunchOverhead) {
  auto check_one_wave = [](std::vector<QuerySet> queries) {
    const std::size_t n = queries.size();
    ServingConfig cfg;
    cfg.drain.max_batch = n;
    ServingSession session(cfg);
    for (QuerySet& q : queries)
      ASSERT_TRUE(session.submit(std::move(q), 0.0));
    session.flush();
    const ServingReport r = session.report();
    ASSERT_EQ(r.drains.size(), 1u);
    EXPECT_EQ(r.completed, n);
    EXPECT_EQ(r.failed, 0u);
    const DrainRecord& d = r.drains[0];
    EXPECT_EQ(d.n_queries, n);
    EXPECT_NEAR(d.solo_transfer_ms - d.transfer_ms,
                static_cast<double>(n - 1) * cfg.transfer.launch_overhead_ms,
                1e-12);
    EXPECT_EQ(r.amortized_transfer_ms(), d.transfer_ms);
    EXPECT_EQ(r.summed_solo_transfer_ms(), d.solo_transfer_ms);
  };

  {
    SCOPED_TRACE("pc + nn");
    ServingFixtures f;
    std::vector<QuerySet> queries;
    queries.push_back(f.pc_query());
    queries.push_back(f.nn_query());
    check_one_wave(std::move(queries));
  }
  {
    SCOPED_TRACE("five Table-1 kernels");
    std::vector<std::unique_ptr<PreparedKernel>> prepared;
    std::vector<QuerySet> queries;
    for (Algo a : {Algo::kBH, Algo::kPC, Algo::kKNN, Algo::kNN, Algo::kVP}) {
      BenchConfig c;
      c.algo = a;
      c.input = inputs_for(a).front();
      c.sorted = true;
      c.n = 256;
      c.profile_samples = 4;
      prepared.push_back(prepare_kernel(c));
      PreparedKernel& pk = *prepared.back();
      EXPECT_GT(pk.upload_bytes, 0u) << algo_name(a);
      EXPECT_GT(pk.download_bytes, 0u) << algo_name(a);
      QuerySet q;
      q.spec.kernel = pk.handle;
      q.spec.space = &pk.space;
      q.spec.mode = GpuMode::from(Variant::kAutoSelect);
      q.spec.mode.profile_samples = c.profile_samples;
      q.spec.mode.profile_seed = c.profile_seed;
      q.upload_bytes = pk.upload_bytes;
      q.download_bytes = pk.download_bytes;
      queries.push_back(std::move(q));
    }
    check_one_wave(std::move(queries));
  }
}

// ---------------------------------------------------------------------
// Percentile summary.
// ---------------------------------------------------------------------

TEST(SummarizeLatency, MatchesLinearInterpolation) {
  LatencySummary s = summarize_latency({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);   // rank 1.5 between 2 and 3
  EXPECT_DOUBLE_EQ(s.p95, 3.85);  // rank 2.85 between 3 and 4
  EXPECT_DOUBLE_EQ(s.p99, 3.97);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  const LatencySummary empty = summarize_latency({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0.0);
}

// The runs-based summary report() builds is the reference's, bit for bit:
// random multisets drawn from a few values (heavy duplicates, +0.0
// included), split at random into runs -- equal values spread over
// several runs, as equal service times of different drain bodies are --
// and singles. Sizes cover n = 1, 2 and 3 and every n in 100..201: up to
// n = 101 p99 reads the last element (its rank's floor is n - 2), at
// n = 101 the rank is an order statistic itself, and above it p99 reads
// two interior ones.
TEST(SummarizeSorted, RunsAndSinglesMatchTheReference) {
  std::mt19937_64 rng(2024);
  const std::vector<double> palette = {0.0,    0.0185, 0.0704, 0.0704,
                                       0.1,    0.125,  1.0 / 3, 2.5,
                                       1e-300, 7e5};
  std::vector<std::size_t> sizes = {1, 2, 3, 4, 5, 7, 20, 99, 1000, 4096};
  for (std::size_t n = 100; n <= 201; ++n) sizes.push_back(n);
  for (const std::size_t n : sizes)
    for (int trial = 0; trial < 6; ++trial) {
      SCOPED_TRACE("n " + std::to_string(n) + " trial " +
                   std::to_string(trial));
      std::vector<double> values;
      std::uniform_int_distribution<std::size_t> pick(
          0, trial % 2 ? palette.size() - 1 : 2);
      std::uniform_real_distribution<double> any(0.0, 3.0);
      for (std::size_t i = 0; i < n; ++i)
        values.push_back(trial == 5 ? any(rng) : palette[pick(rng)]);
      if (trial == 4)  // mostly +0.0, as queue delays at light load are
        for (std::size_t i = 0; i < n; i += 1 + i % 3) values[i] = 0.0;
      // Each value goes to a run of its value or stays a single.
      std::sort(values.begin(), values.end());
      std::vector<LatencyRun> runs;
      std::vector<double> singles;
      for (double v : values) {
        const auto r = rng() % 3;
        if (r == 0) {
          singles.push_back(v);
        } else if (r == 1 && !runs.empty() && runs.back().value == v) {
          ++runs.back().count;
        } else {
          runs.push_back({v, 1});
        }
      }
      if (trial == 3) runs.push_back({values.back(), 0});  // an empty run
      EXPECT_TRUE(same_summary(summarize_sorted(runs, singles),
                               reference_summary(values)));
      EXPECT_TRUE(same_summary(summarize_latency(values),
                               reference_summary(values)));
    }
  EXPECT_TRUE(same_summary(summarize_sorted({}, std::vector<double>{}),
                           LatencySummary{}));
  const LatencyRun zeros{0.0, 5};
  EXPECT_TRUE(same_summary(summarize_sorted(std::span(&zeros, 1),
                                            std::vector<double>{}),
                           reference_summary(std::vector<double>(5, 0.0))));
}

// report() sorts the waited queries' records in place, so it must stay
// exact when called again and after the session serves more: checked on
// a loaded two-device trace where some queries wait and some do not.
TEST(ServingSession, RepeatedReportsStayExact) {
  ServingFixtures f;
  const QuerySet pc = f.pc_query();
  const QuerySet nn = f.nn_query();
  std::vector<double> trace = poisson_trace(200, 40000.0, 9);
  ServingConfig cfg;
  cfg.devices = 2;
  cfg.drain.max_batch = 4;
  ServingSession session(cfg);
  std::vector<double> admitted;
  auto serve = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      ASSERT_TRUE(session.submit(i % 3 ? pc : nn, trace[i]));
      admitted.push_back(trace[i]);
    }
  };
  serve(0, 120);
  session.flush();
  const ServingReport first = session.report();
  std::size_t zero_delay = 0;
  for (double qd : delays_from_drains(first, admitted))
    zero_delay += qd == 0.0 ? 1 : 0;
  EXPECT_GT(zero_delay, 0u);
  EXPECT_LT(zero_delay, admitted.size());
  expect_exact_summaries(session, admitted);
  expect_exact_summaries(session, admitted);  // again, records now sorted
  EXPECT_TRUE(same_summary(session.report().latency, first.latency));

  // More queries, after the reports sorted the earlier records: a report
  // with some of them still pending, then one after the flush.
  const double shift = first.last_completion_ms;
  for (std::size_t i = 120; i < trace.size(); ++i) trace[i] += shift;
  serve(120, 160);
  ASSERT_GT(session.pending(), 0u);
  expect_exact_summaries(session, admitted);
  serve(160, trace.size());
  session.flush();
  expect_exact_summaries(session, admitted);
  EXPECT_EQ(session.report().completed, trace.size());
}

// ---------------------------------------------------------------------
// Arrival-trace generators.
// ---------------------------------------------------------------------

TEST(ArrivalTraces, PoissonDeterministicMonotoneSeeded) {
  const auto a = poisson_trace(256, 1000.0, 5);
  const auto b = poisson_trace(256, 1000.0, 5);
  const auto c = poisson_trace(256, 1000.0, 6);
  ASSERT_EQ(a.size(), 256u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i], a[i - 1]) << "at " << i;
  // Mean inter-arrival should land near 1 ms at 1000 qps (law of large
  // numbers; generous tolerance, this is a smoke bound not a fit).
  EXPECT_NEAR(a.back() / static_cast<double>(a.size()), 1.0, 0.3);
  EXPECT_THROW((void)poisson_trace(8, 0.0, 1), std::invalid_argument);
}

TEST(ArrivalTraces, BurstyArrivalsLandInOnWindows) {
  const double on_ms = 2.0, off_ms = 3.0;
  const auto a = bursty_trace(200, 4000.0, on_ms, off_ms, 11);
  const auto b = bursty_trace(200, 4000.0, on_ms, off_ms, 11);
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i], a[i - 1]) << "at " << i;
  for (double t : a) {
    const double phase = std::fmod(t, on_ms + off_ms);
    EXPECT_LE(phase, on_ms + 1e-9) << "arrival " << t << " in OFF window";
  }
  EXPECT_THROW((void)bursty_trace(8, -1.0, 2.0, 2.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)bursty_trace(8, 100.0, 0.0, 2.0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace tt
