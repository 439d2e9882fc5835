// SIMT memory front-end probes: 32 lanes of WarpMemory::lane_load followed
// by one commit, on a field-annotated buffer with the L2 slice on. They are
// the only view from outside the simt layer of what one commit costs on
// the host, for the two access shapes the grids produce.
#include <algorithm>
#include <chrono>
#include <vector>

#include "pipeline.h"
#include "simt/address_space.h"
#include "simt/l2cache.h"
#include "simt/warp_memory.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kProbeElems = 1u << 16;  // a 2 MiB node array
constexpr int kBlocks = 5;

// Median over kBlocks blocks of the mean host ns per commit; `lanes_of`
// records the block's i-th commit.
template <class Fn>
double ns_per_commit(tt::WarpMemory& mem, std::size_t commits, Fn&& lanes_of) {
  std::vector<double> per_block;
  for (int b = 0; b < kBlocks; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < commits; ++i) {
      lanes_of(i);
      (void)mem.commit();
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    per_block.push_back(ns / static_cast<double>(commits));
  }
  std::sort(per_block.begin(), per_block.end());
  return per_block[kBlocks / 2];
}

}  // namespace

void simt_probes(const tt::DeviceConfig& cfg, std::uint64_t seed,
                 Record& host) {
  tt::GpuAddressSpace space;
  const tt::BufferId nodes = space.register_buffer(
      "probe_nodes", 32, kProbeElems,
      {{"lo", 0, 12}, {"hi", 12, 12}, {"link", 24, 8}});
  // The L2 slice a warp of a full-grid launch gets.
  const std::size_t slice =
      cfg.l2_bytes / static_cast<std::size_t>(cfg.max_resident_warps());
  const int lanes = cfg.warp_size;

  {
    tt::KernelStats stats;
    tt::L2Cache l2(slice, cfg.l2_line_bytes, cfg.l2_assoc);
    tt::WarpMemory mem(space, cfg, &l2, stats);
    host["simt.commit_ns.coalesced"] =
        ns_per_commit(mem, 20000, [&](std::size_t i) {
          const std::uint64_t base = (i * lanes) % kProbeElems;
          for (int l = 0; l < lanes; ++l)
            mem.lane_load(l, nodes, (base + static_cast<std::uint64_t>(l)) %
                                        kProbeElems);
        });
  }
  {
    // Two random elements per lane: the second rank is a replayed load.
    constexpr std::size_t kCommits = 4000;
    tt::Pcg32 rng(seed, 0x9b0be);
    std::vector<std::uint32_t> idx(kCommits * lanes * 2);
    for (auto& x : idx)
      x = rng.next_below(static_cast<std::uint32_t>(kProbeElems));
    tt::KernelStats stats;
    tt::L2Cache l2(slice, cfg.l2_line_bytes, cfg.l2_assoc);
    tt::WarpMemory mem(space, cfg, &l2, stats);
    host["simt.commit_ns.scattered"] =
        ns_per_commit(mem, kCommits, [&](std::size_t i) {
          const std::uint32_t* row = &idx[i * lanes * 2];
          for (int l = 0; l < lanes; ++l) {
            mem.lane_load(l, nodes, row[2 * l]);
            mem.lane_load(l, nodes, row[2 * l + 1]);
          }
        });
  }
}

}  // namespace perfbench
