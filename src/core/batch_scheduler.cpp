#include "core/batch_scheduler.h"

#include <algorithm>
#include <stdexcept>

namespace tt {

const char* batch_policy_name(BatchPolicy p) {
  switch (p) {
    case BatchPolicy::kRoundRobin: return "round_robin";
    case BatchPolicy::kSequential: return "sequential";
    case BatchPolicy::kWorkStealing: return "work_stealing";
  }
  return "?";
}

namespace {
constexpr BatchPolicy kAllBatchPolicies[] = {
    BatchPolicy::kRoundRobin, BatchPolicy::kSequential,
    BatchPolicy::kWorkStealing};
}  // namespace

BatchPolicy batch_policy_from_name(const std::string& name) {
  for (BatchPolicy p : kAllBatchPolicies)
    if (name == batch_policy_name(p)) return p;
  // Same shape as variant_from_name: list every valid spelling so a typo
  // self-diagnoses at the CLI.
  std::string valid;
  for (BatchPolicy p : kAllBatchPolicies) {
    if (!valid.empty()) valid += ", ";
    valid += batch_policy_name(p);
  }
  throw std::invalid_argument("batch_policy_from_name: unknown policy '" +
                              name + "' (valid: " + valid + ")");
}

BatchSchedule BatchScheduler::schedule() const {
  BatchSchedule s;
  std::size_t max_waves = 0;
  for (const Entry& e : launches_) {
    s.residency += e.grid;
    s.total_chunks += e.n_warps;
    max_waves = std::max(max_waves, e.waves());
  }

  // Every wave holds at least one chunk, all from one launch, so the
  // sequence switches launches exactly where two consecutive waves come
  // from different launches.
  const std::size_t none = launches_.size();
  std::size_t prev = none;
  auto next_wave = [&](std::size_t launch) {
    if (prev != none && prev != launch) ++s.switches;
    prev = launch;
  };

  switch (policy_) {
    case BatchPolicy::kRoundRobin:
    case BatchPolicy::kWorkStealing:
      // Wave w issues one residency-set per launch before any launch's
      // wave w+1; launches with fewer waves simply drop out early. For
      // work_stealing this IS the earliest-finish order: within one
      // residency all chunks have the same modelled issue cost, so the
      // greedy degenerates to the interleave (the cost-aware part of the
      // policy lives in assign_devices).
      for (std::size_t w = 0; w < max_waves; ++w)
        for (std::size_t l = 0; l < launches_.size(); ++l)
          if (w < launches_[l].waves()) next_wave(l);
      s.rounds = max_waves;
      break;
    case BatchPolicy::kSequential:
      // A launch's waves run back to back: one possible switch per launch.
      for (std::size_t l = 0; l < launches_.size(); ++l) {
        if (launches_[l].waves() > 0) next_wave(l);
        s.rounds += launches_[l].waves();
      }
      break;
  }
  return s;
}

DeviceAssignment assign_devices(std::span<const double> chunk_costs,
                                std::size_t n_devices, BatchPolicy policy) {
  if (n_devices == 0)
    throw std::invalid_argument("assign_devices: n_devices must be >= 1");
  DeviceAssignment a;
  a.device.resize(chunk_costs.size());
  a.load.assign(n_devices, 0.0);
  a.chunks.assign(n_devices, 0);
  a.steals.assign(n_devices, 0);
  const std::size_t n = chunk_costs.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t d = 0;
    switch (policy) {
      case BatchPolicy::kRoundRobin:
        d = i % n_devices;
        break;
      case BatchPolicy::kSequential:
        // Balanced contiguous blocks: device d takes chunks
        // [d*n/N, (d+1)*n/N).
        d = i * n_devices / n;
        break;
      case BatchPolicy::kWorkStealing:
        // Online earliest-finish greedy: the device with the least
        // accumulated cost takes the chunk (ties to the lowest index, so
        // the assignment is deterministic).
        for (std::size_t c = 1; c < n_devices; ++c)
          if (a.load[c] < a.load[d]) d = c;
        break;
    }
    a.device[i] = static_cast<std::uint32_t>(d);
    a.load[d] += chunk_costs[i];
    ++a.chunks[d];
    if (d != i % n_devices) ++a.steals[d];
  }
  return a;
}

}  // namespace tt
