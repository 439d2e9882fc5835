// Chrome trace-event export of merged warp traces, loadable in Perfetto /
// chrome://tracing.
//
// A ChromeTraceCollector owns one TraceSink per launch: the caller opens a
// track with begin_launch(name), hands the returned sink to run_gpu_sim /
// LaunchSpec::trace, and write_file() serializes every launch as one
// chrome *process* (pid = launch index, named by a process_name metadata
// event) whose *threads* are the launch's warps -- one event row per warp,
// ts = the per-warp sequence number. Launch-scope events (warp 0xffffffff:
// the auto_select kSelect decision) land on a dedicated "launch" thread
// row; batched kChunk events keep their kernel-id payload in args. The
// output is deterministic for a deterministic trace (merged() order), so
// OMP_NUM_THREADS=1 vs N produce byte-identical files.
//
// Serving runs (core/serving.h) name their tracks "drain<i>/<kernel>" --
// one process per executed launch of each of a session's first 32
// admission waves -- so queueing and wave formation are visible next to
// the warp activity in Perfetto.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "simt/memory_attr.h"

namespace tt::obs {

class ChromeTraceCollector {
 public:
  explicit ChromeTraceCollector(std::size_t capacity_per_warp = 4096);

  // Open the next launch's track. The returned sink is owned by the
  // collector and stays valid for its lifetime; pass it to run_gpu_sim or
  // LaunchSpec::trace (those call begin() themselves). Tracks serialize in
  // begin_launch order.
  [[nodiscard]] TraceSink& begin_launch(std::string name);

  // Attach the most recent launch's per-buffer traffic attribution
  // (simt/memory_attr.h). write_json then emits one counter track
  // ("ph":"C", name "mem:<buffer>") per buffer with traffic on the
  // launch's process row -- DRAM vs L2-hit transactions and smem
  // node-cache hits stack next to the warp timeline in Perfetto. A launch
  // without an attached attribution (or an empty one) gets no counter
  // tracks. No-op before the first begin_launch.
  void set_launch_memory(const MemoryAttribution& m);

  [[nodiscard]] std::size_t n_launches() const { return launches_.size(); }
  [[nodiscard]] const std::string& launch_name(std::size_t i) const {
    return launches_.at(i).name;
  }
  // Trace events across all launches (metadata records not included) --
  // matches the sum of the launches' TraceSink::total_events().
  [[nodiscard]] std::size_t total_events() const;

  // {"traceEvents": [...]} -- the JSON object format, which Perfetto and
  // chrome://tracing both accept.
  void write_json(std::ostream& os) const;
  // Returns false and fills *err (if non-null) on I/O failure.
  bool write_file(const std::string& path, std::string* err = nullptr) const;

 private:
  struct Launch {
    std::string name;
    // unique_ptr keeps sink addresses stable across begin_launch calls.
    std::unique_ptr<TraceSink> sink;
    MemoryAttribution memory;  // empty unless set_launch_memory was called
  };
  std::size_t capacity_;
  std::vector<Launch> launches_;
};

}  // namespace tt::obs
