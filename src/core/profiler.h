// Runtime traversal-similarity profiling (paper section 4.4, adopting Jo &
// Kulkarni's sampling method): draw a few samples of neighboring points,
// run their traversals, and measure how similar they are. Similar
// neighbors => the input is (effectively) sorted => lockstep traversal is
// profitable; dissimilar => use the non-lockstep variant.
//
// Raw Jaccard similarity is not comparable across kernels: Barnes-Hut
// traversals share the whole top of the octree, so even *shuffled* bodies
// measure ~0.44, while guide-truncated traversals (nn, vp) only reach
// ~0.42 on perfectly tree-sorted inputs because their visit sets are short
// and query-specific. No absolute cutoff separates the two regimes. The
// detector therefore normalizes against a per-input baseline: the mean
// similarity of *random* traversal pairs from the same input. On a
// shuffled input, adjacent points are themselves a random pair, so the
// lift (adjacent mean - random baseline) is ~0 by construction for every
// kernel; on a spatially sorted input the lift is large (>= ~0.3 across
// the five Table-1 benchmarks).
#pragma once

#include <cstdint>
#include <vector>

#include "core/traversal_kernel.h"
#include "util/rng.h"

namespace tt {

// Jaccard similarity of two visited-node id sets (inputs need not be
// sorted; they are copied and sorted internally).
double traversal_jaccard(std::vector<NodeId> a, std::vector<NodeId> b);

// Minimum similarity lift (adjacent-pair mean minus random-pair baseline)
// for an input to count as sorted. Empirically, the five Table-1
// benchmarks measure a lift >= ~0.3 on Morton- or kd-leaf-sorted inputs
// and ~0 (sampling noise only) on shuffled ones, so 0.15 splits the
// regimes with margin on both sides; bench/selection_sweep sweeps the
// axis.
inline constexpr double kSimilarityLiftThreshold = 0.15;

struct ProfileReport {
  double mean_similarity = 0;      // mean Jaccard over adjacent (pid, pid+1)
  double baseline_similarity = 0;  // mean Jaccard over random pairs
  std::size_t samples = 0;
  double threshold = kSimilarityLiftThreshold;
  bool looks_sorted = false;
  // Total nodes visited while recording the sampled traversals.
  std::uint64_t sampled_visits = 0;
  // Each sampled traversal's visit count, in lane order of the sampling
  // launch: sample s's pair (pid, pid+1) runs on lanes 2s and 2s+1.
  // Sampling is not free on a real GPU; the auto_select variant charges
  // the launch these lanes form to the cost model (sampling_launch_cycles
  // in core/launch.h).
  std::vector<std::uint32_t> traversal_visits;

  // The decision statistic: how much more similar adjacent traversals are
  // than random ones from the same input.
  double lift() const { return mean_similarity - baseline_similarity; }
};

// Record the node ids one point's traversal visits (autoropes semantics).
template <TraversalKernel K>
std::vector<NodeId> record_traversal(const K& k, std::uint32_t pid) {
  NoopMem mem;
  std::vector<NodeId> visited;
  typename K::State st = k.init(pid, mem, 0);
  std::vector<Child<typename K::UArg, typename K::LArg>> stk;
  Child<typename K::UArg, typename K::LArg> out[K::kFanout];
  stk.push_back({k.root(), k.root_uarg(), k.root_larg()});
  while (!stk.empty()) {
    auto top = stk.back();
    stk.pop_back();
    visited.push_back(top.node);
    if (!k.visit(top.node, top.uarg, top.larg, st, mem, 0)) continue;
    int cs = K::kNumCallSets > 1 ? k.choose_callset(top.node, st) : 0;
    int cnt = k.children(top.node, top.uarg, cs, st, out, mem, 0);
    for (int i = cnt - 1; i >= 0; --i) stk.push_back(out[i]);
  }
  return visited;
}

// Sample `samples` pairs of adjacent points (pid, pid+1) and average their
// traversal similarity; the random-pair baseline reuses the already
// recorded traversals (consecutive samples pick independent pids, so
// pairing sample s's first traversal with sample s+1's costs no extra
// visits). `threshold` is the sorted-detection cutoff on the lift
// (mean - baseline >= threshold => treat the input as sorted); the
// default kSimilarityLiftThreshold is justified above. With a single
// sample no baseline pair exists, so the lift degenerates to the raw
// mean.
template <TraversalKernel K>
ProfileReport profile_similarity(const K& k, std::size_t samples,
                                 std::uint64_t seed,
                                 double threshold = kSimilarityLiftThreshold) {
  ProfileReport r;
  r.threshold = threshold;
  const std::size_t n = k.num_points();
  if (n < 2) {
    r.looks_sorted = true;
    return r;
  }
  Pcg32 rng(seed, 11);
  r.traversal_visits.reserve(2 * samples);
  double total_adjacent = 0;
  double total_baseline = 0;
  std::vector<NodeId> prev;
  for (std::size_t s = 0; s < samples; ++s) {
    auto pid = static_cast<std::uint32_t>(
        rng.next_below(static_cast<std::uint32_t>(n - 1)));
    auto a = record_traversal(k, pid);
    auto b = record_traversal(k, pid + 1);
    r.sampled_visits += a.size() + b.size();
    r.traversal_visits.push_back(static_cast<std::uint32_t>(a.size()));
    r.traversal_visits.push_back(static_cast<std::uint32_t>(b.size()));
    if (s > 0) total_baseline += traversal_jaccard(prev, a);
    prev = a;
    total_adjacent += traversal_jaccard(std::move(a), std::move(b));
  }
  r.samples = samples;
  r.mean_similarity =
      samples ? total_adjacent / static_cast<double>(samples) : 0.0;
  r.baseline_similarity =
      samples > 1 ? total_baseline / static_cast<double>(samples - 1) : 0.0;
  r.looks_sorted = r.lift() >= threshold;
  return r;
}

}  // namespace tt
