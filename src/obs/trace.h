// Opt-in per-warp execution tracing for the simulated GPU executors.
//
// Every warp loop in core/gpu_executors.h carries an optional WarpTracer*;
// when tracing is off the pointer is null and the hooks cost one branch.
// When on, each traversal step appends compact per-step records (event
// kind, node, active-lane mask, stack depth) to a ring buffer owned by the
// executing OpenMP thread and reused across the warps that thread
// simulates. At the end of each warp the ring's retained events are
// committed into the sink's slot for that *logical* warp.
//
// Determinism: the ring capacity bounds events *per warp* (the ring is
// reset at warp start), and every event carries a per-warp sequence
// number, so which events survive -- and the merged order, sorted by
// (warp, seq) -- is independent of how OpenMP schedules warps to threads.
//
// Reconciliation invariants (pinned by tests/obs/trace_test.cpp):
//   sum over kVisit events of popcount(mask)  == KernelStats::lane_visits
//   count of kPop events (lockstep variants)  == KernelStats::warp_pops
//   count of kVote events                     == KernelStats::votes
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tt::obs {

class JsonWriter;

enum class TraceEventKind : std::uint8_t {
  kPop = 0,       // rope-stack pop (lockstep: one per warp-level entry;
                  // non-lockstep: one per step, mask = lanes that popped)
  kVisit = 1,     // visit executed; mask = lanes that ran the visit
  kTruncate = 2,  // mask = lanes whose visit returned "do not descend"
  kPush = 3,      // child pushed (lockstep: per child; non-lockstep: one
                  // per step, aux = total pushes across lanes)
  kVote = 4,      // warp ballot / majority vote; aux = vote outcome
  kCall = 5,      // recursive variants: call frame spilled
  kReturn = 6,    // recursive variants: frame restored
  kSelect = 7,    // auto_select launch decision (launch-scope, not per-warp;
                  // aux = 1 if lockstep was chosen, mask = sample count)
  kChunk = 8,     // batched runs only: chunk start, aux = owning kernel id
                  // (the launch's index within the batch), node = first
                  // point id of the chunk, mask = the chunk's lane mask.
                  // Solo runs never emit it, so solo traces are unchanged.
  kCopy = 9,      // sharded runs only (core/device_group.h): one pipelined
                  // upload chunk crossing the bus (launch-scope; node =
                  // chunk index, mask = points in the chunk, aux = device).
                  // Rendered next to the device's warp rows, so copy /
                  // compute overlap is visible per device in Perfetto.
};

// Number of TraceEventKind values. A new kind must extend trace_event_name
// and trace_event_kind_from_name too -- the exhaustiveness test in
// tests/obs/trace_test.cpp walks [0, kNumTraceEventKinds) and fails on an
// unnamed or non-round-tripping value.
inline constexpr std::size_t kNumTraceEventKinds = 10;

const char* trace_event_name(TraceEventKind k);
// Inverse of trace_event_name; throws std::invalid_argument on an unknown
// name (the error lists the valid ones).
TraceEventKind trace_event_kind_from_name(const std::string& name);

struct TraceEvent {
  std::uint32_t warp = 0;
  std::uint32_t seq = 0;   // per-warp, starts at 0
  TraceEventKind kind = TraceEventKind::kPop;
  std::uint32_t node = 0xffffffffu;  // kNullNode when not warp-uniform
  std::uint32_t mask = 0;            // active-lane mask for the event
  std::uint32_t depth = 0;           // stack depth after the operation
  std::uint32_t aux = 0;             // kind-specific payload
};

// Per-thread bounded ring. Keeps the *most recent* `capacity` events of
// the current warp; older events are overwritten and counted as dropped.
class WarpTracer {
 public:
  explicit WarpTracer(std::size_t capacity = 4096);

  void begin_warp(std::uint32_t warp);

  void record(TraceEventKind kind, std::uint32_t node, std::uint32_t mask,
              std::uint32_t depth, std::uint32_t aux = 0) {
    TraceEvent e;
    e.warp = warp_;
    e.seq = seq_++;
    e.kind = kind;
    e.node = node;
    e.mask = mask;
    e.depth = depth;
    e.aux = aux;
    if (count_ < ring_.size()) {
      ring_[(head_ + count_) % ring_.size()] = e;
      ++count_;
    } else {
      ring_[head_] = e;
      head_ = (head_ + 1) % ring_.size();
      ++dropped_;
    }
  }

  [[nodiscard]] std::uint32_t warp() const { return warp_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  // Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> drain() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;   // index of the oldest retained event
  std::size_t count_ = 0;  // retained events
  std::uint32_t warp_ = 0;
  std::uint32_t seq_ = 0;
  std::uint64_t dropped_ = 0;
};

class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity_per_warp = 4096);

  // Called by the launch before any warp runs (the TypedLaunchRun
  // constructor, core/launch.h). Resets prior contents.
  // `n_threads` sizes the per-OpenMP-thread ring pool.
  void begin(std::size_t n_warps, int n_threads);

  // The executing thread's ring (thread_id = omp_get_thread_num()).
  [[nodiscard]] WarpTracer& ring(int thread_id);

  // Commit the ring's retained events as logical warp `warp`'s trace.
  // Each warp is simulated by exactly one thread, so slots never race.
  void commit(std::uint32_t warp, const WarpTracer& tracer);

  // Launch-scope event (not tied to any warp): e.g. the auto_select
  // kSelect decision. Recorded with warp = 0xffffffff so merged() keeps
  // its (warp, seq) order with launch events after all per-warp events.
  // Called from the serial part of a launch only.
  void record_launch(TraceEventKind kind, std::uint32_t node,
                     std::uint32_t mask, std::uint32_t depth,
                     std::uint32_t aux = 0);

  [[nodiscard]] std::size_t n_warps() const { return per_warp_.size(); }
  [[nodiscard]] const std::vector<TraceEvent>& launch_events() const {
    return launch_;
  }
  [[nodiscard]] const std::vector<TraceEvent>& events_for(
      std::uint32_t warp) const;
  [[nodiscard]] std::uint64_t dropped_for(std::uint32_t warp) const;
  [[nodiscard]] std::uint64_t total_dropped() const;
  [[nodiscard]] std::size_t total_events() const;

  // All warps' events concatenated in (warp, seq) order -- deterministic.
  [[nodiscard]] std::vector<TraceEvent> merged() const;

  // Event stream as JSON (array of per-warp objects), deterministic.
  void write_json(JsonWriter& w) const;

  [[nodiscard]] std::size_t capacity_per_warp() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::vector<WarpTracer> rings_;                  // one per OpenMP thread
  std::vector<std::vector<TraceEvent>> per_warp_;  // committed traces
  std::vector<std::uint64_t> dropped_;
  std::vector<TraceEvent> launch_;                 // launch-scope events
};

}  // namespace tt::obs
