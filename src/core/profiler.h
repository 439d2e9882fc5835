// Runtime traversal sampling (paper section 4.4, adopting Jo & Kulkarni's
// sampling method): before an auto_select launch, run a few of the
// launch's own warps on the host and keep what the launch decision needs
// to price both autoropes compositions (core/launch.h price_compositions).
//
// The sampler draws 2 x `samples` lanes as warp-aligned runs of adjacent
// points: a run starts on a warp boundary of the launch and covers up to
// one warp, so a full run *is* one of the launch's warps. Sample s's
// adjacent pair (pid, pid + 1) sits on lanes 2s and 2s + 1. Each run keeps
// the warp's Table-2 quantities -- the union of its lanes' visit sets (U,
// the lockstep union traversal's pops), its longest lane (Lmax, the
// non-lockstep warp's steps) and the sum of its lane visits -- and, given
// the launch's address space, the 128-byte segments each composition's
// commits would issue, in WarpMemory::commit's issue order, for the
// pricing's L2 replay.
//
// The similarity numbers are diagnostics, reported next to the prices.
// Raw Jaccard similarity is not comparable across kernels: Barnes-Hut
// traversals share the whole top of the octree, so even *shuffled* bodies
// measure ~0.44, while guide-truncated traversals (nn, vp) stay lower on
// perfectly tree-sorted inputs because their visit sets are short and
// query-specific. The lift therefore normalizes against a per-input
// baseline: the mean similarity of random pairs, the lanes at the same
// offset of consecutive runs (independently drawn warps). On a shuffled
// input adjacent points are themselves a random pair, so the lift is ~0
// there and large on spatially sorted inputs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/rope_stack.h"
#include "core/stack_policy.h"
#include "core/traversal_kernel.h"
#include "simt/address_space.h"
#include "simt/coalescing.h"
#include "simt/device_config.h"
#include "simt/warp_memory.h"
#include "util/rng.h"

namespace tt {

// Jaccard similarity of two visited-node id sets (inputs need not be
// sorted; they are copied and sorted internally).
double traversal_jaccard(std::vector<NodeId> a, std::vector<NodeId> b);

// One sampled warp: points [first_point, first_point + lanes) of the
// launch, one lane each, run as the launch would run that warp.
struct SampledWarp {
  std::uint32_t first_point = 0;
  std::uint32_t lanes = 0;
  std::uint64_t union_visits = 0;  // U: distinct nodes its lanes visit
  std::uint32_t longest = 0;       // Lmax: its longest lane's visits
  std::uint64_t lane_visits = 0;   // S: the sum of its lanes' visits
  // Section-4.3 call-set votes the lockstep union traversal takes: one per
  // union node some lane descends from, for guided kernels only.
  std::uint64_t callset_votes = 0;
  // The segments (byte addresses of transaction_bytes-sized segments)
  // each composition's commits issue, in issue order: the lockstep union
  // traversal over a per-warp stack, and the per-lane walk over
  // interleaved rope stacks. Empty when sampled without an address space.
  std::vector<std::uint64_t> lockstep_segments;
  std::vector<std::uint64_t> nolockstep_segments;
};

struct ProfileReport {
  double mean_similarity = 0;      // mean Jaccard over adjacent (pid, pid+1)
  double baseline_similarity = 0;  // mean Jaccard over random pairs
  std::size_t samples = 0;
  // Total nodes visited while recording the sampled traversals.
  std::uint64_t sampled_visits = 0;
  // Each sampled traversal's visit count, in lane order of the sampling
  // launch: sample s's pair (pid, pid+1) runs on lanes 2s and 2s+1.
  // Sampling is not free on a real GPU; the auto_select variant charges
  // the launch these lanes form to the cost model (sampling_launch_cycles
  // in core/launch.h).
  std::vector<std::uint32_t> traversal_visits;
  // The runs, in lane order: their lanes concatenate to traversal_visits.
  std::vector<SampledWarp> warps;

  // How much more similar adjacent traversals are than random ones from
  // the same input.
  double lift() const { return mean_similarity - baseline_similarity; }
};

namespace detail {

// Commit group of stack and raw traffic, which WarpMemory::commit issues
// before every buffer group.
inline constexpr BufferId kStackGroup = -2;

// One recorded access: its commit group (the buffer id, or kStackGroup)
// and byte range.
struct SampledAccess {
  BufferId key = kStackGroup;
  std::uint64_t addr = 0;
  std::uint32_t bytes = 0;
};

// The sampler's memory recorder: resolves each load against the launch's
// address space and appends it to `out`; records nothing without a space.
class AccessRecorder {
 public:
  AccessRecorder(const GpuAddressSpace* space, std::vector<SampledAccess>& out)
      : space_(space), out_(&out) {}
  void lane_load(int, BufferId buf, std::uint64_t idx) {
    if (space_)
      out_->push_back({buf, space_->addr(buf, idx),
                       static_cast<std::uint32_t>(space_->elem_bytes(buf))});
  }
  void lane_load_raw(int, std::uint64_t addr, std::uint32_t bytes) {
    if (space_) out_->push_back({kStackGroup, addr, bytes});
  }
  std::uint64_t commit() { return 0; }

 private:
  const GpuAddressSpace* space_;
  std::vector<SampledAccess>* out_;
};

// One node visit of a recorded lane. Its loads are acc[loads_begin,
// children_begin) and, when it descended, its children's loads
// acc[children_begin, end).
struct LaneVisit {
  NodeId node = kNullNode;
  std::uint32_t level = 0;     // rope-stack entries left below it once popped
  bool descended = false;      // the visit asked for its children
  std::uint32_t children = 0;  // children pushed
  std::uint32_t loads_begin = 0, children_begin = 0, end = 0;
};

// One point's traversal (autoropes semantics), with the loads of each
// phase: init's loads are acc[0, init_end).
struct LaneRecord {
  std::vector<SampledAccess> acc;
  std::uint32_t init_end = 0;
  std::vector<LaneVisit> visits;
};

template <TraversalKernel K>
LaneRecord record_lane(const K& k, std::uint32_t pid,
                       const GpuAddressSpace* space) {
  LaneRecord r;
  AccessRecorder mem(space, r.acc);
  const auto at = [&r] { return static_cast<std::uint32_t>(r.acc.size()); };
  typename K::State st = k.init(pid, mem, 0);
  r.init_end = at();
  std::vector<Child<typename K::UArg, typename K::LArg>> stk;
  Child<typename K::UArg, typename K::LArg> out[K::kFanout];
  stk.push_back({k.root(), k.root_uarg(), k.root_larg()});
  while (!stk.empty()) {
    const auto top = stk.back();
    stk.pop_back();
    LaneVisit v;
    v.node = top.node;
    v.level = static_cast<std::uint32_t>(stk.size());
    v.loads_begin = at();
    v.descended = k.visit(top.node, top.uarg, top.larg, st, mem, 0);
    v.children_begin = at();
    if (v.descended) {
      const int cs = K::kNumCallSets > 1 ? k.choose_callset(top.node, st) : 0;
      const int cnt = k.children(top.node, top.uarg, cs, st, out, mem, 0);
      for (int i = cnt - 1; i >= 0; --i) stk.push_back(out[i]);
      v.children = static_cast<std::uint32_t>(cnt);
    }
    v.end = at();
    r.visits.push_back(v);
  }
  return r;
}

// One modelled commit of a warp, issued in WarpMemory::commit's order:
// groups by ascending key, each lane's k-th access of a group in load k
// (lanes ascending), and each load's distinct segments ascending
// (coalesce). Accesses must be added lane by lane, lanes ascending.
// `elide` drops a lane's repeated load of one address within the commit,
// as a fused kernel's shared-load elision does.
class CommitModel {
 public:
  CommitModel(std::uint32_t segment_bytes, bool elide)
      : tb_(segment_bytes), elide_(elide) {}

  void add(std::uint32_t lane, const SampledAccess& a) {
    pending_.push_back({a, lane});
  }
  void add(std::uint32_t lane, const LaneRecord& r, std::uint32_t begin,
           std::uint32_t end) {
    for (std::uint32_t i = begin; i < end; ++i) add(lane, r.acc[i]);
  }

  // Append the commit's segments to `out` and clear it. A commit touches a
  // few group keys, so each key's accesses are picked out in one pass,
  // keeping their lane order.
  void commit(std::vector<std::uint64_t>& out) {
    if (elide_) elide_repeats();
    keys_.clear();
    for (const Pending& p : pending_)
      if (std::find(keys_.begin(), keys_.end(), p.a.key) == keys_.end())
        keys_.push_back(p.a.key);
    std::sort(keys_.begin(), keys_.end());
    for (const BufferId key : keys_) {
      group_.clear();
      for (const Pending& p : pending_)
        if (p.a.key == key) group_.push_back(p);
      for (std::size_t rank = 0;; ++rank) {
        load_.clear();
        for (std::size_t k = 0; k < group_.size();) {
          std::size_t e = k;
          while (e < group_.size() && group_[e].lane == group_[k].lane) ++e;
          if (k + rank < e) load_.push_back(group_[k + rank].a);
          k = e;
        }
        if (load_.empty()) break;
        (void)coalesce(load_, tb_, segs_);
        for (std::uint64_t s : segs_) out.push_back(s * tb_);
      }
    }
    pending_.clear();
  }

 private:
  struct Pending {
    SampledAccess a;
    std::uint32_t lane;
  };
  // Accesses are added lane by lane, so a lane's earlier survivors are the
  // kept entries from `lane_begin` on.
  void elide_repeats() {
    std::size_t kept = 0, lane_begin = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      const Pending p = pending_[i];
      if (kept == 0 || pending_[kept - 1].lane != p.lane) lane_begin = kept;
      const auto first = pending_.begin();
      const bool repeat =
          p.a.key != kStackGroup &&
          std::any_of(first + static_cast<std::ptrdiff_t>(lane_begin),
                      first + static_cast<std::ptrdiff_t>(kept),
                      [&p](const Pending& q) {
                        return q.a.key == p.a.key && q.a.addr == p.a.addr;
                      });
      if (!repeat) pending_[kept++] = p;
    }
    pending_.resize(kept);
  }

  std::uint32_t tb_;
  bool elide_;
  std::vector<Pending> pending_;
  std::vector<BufferId> keys_;
  std::vector<Pending> group_;
  std::vector<SampledAccess> load_;
  std::vector<std::uint64_t> segs_;
};

// Where the sampled warps' stack arena sits: a segment-aligned address
// clear of any kernel's buffers. Fixed, so a price never depends on which
// launches registered their arenas in the address space first.
inline constexpr std::uint64_t kSampledStackBase = std::uint64_t{1} << 40;

// One of the two segment streams of a sampled warp (SampledWarp), from
// its lanes' records; both open the chunk with every lane's init loads.
// Non-lockstep (LoopHeadReconvergence over LaneRopeStack, into
// nolockstep_segments): step t pops every live lane's t-th entry, then
// commits those visits' loads, then their children's loads with the
// pushes; it reads w.longest. Lockstep (WarpAndTruncation over a
// shared-memory WarpStack, into lockstep_segments and callset_votes): the
// union of the lanes' visit sets in node-id order -- the left-biased DFS
// order an unguided union traversal pops -- each node committing its
// lanes' loads, then the first descending lane's children loads; kernels
// with per-lane arguments add their interleaved argument-plane reads and
// writes. The two streams write disjoint members of `w`, so they can be
// modelled concurrently.
template <TraversalKernel K>
void model_warp_stream(const K& k, std::span<const LaneRecord> lanes,
                       const DeviceConfig& cfg, bool lockstep,
                       SampledWarp& w) {
  CommitModel m(static_cast<std::uint32_t>(cfg.transaction_bytes),
                kernel_shares_node_loads<K>);
  const auto ws = static_cast<std::uint32_t>(cfg.warp_size);
  // The warp's arena region, at the offset a one-chunk-per-warp grid
  // gives it: spans need not be segment multiples, so where a region
  // starts decides how its levels straddle segments.
  const std::uint32_t entry = arena_entry_bytes<K>(lockstep);
  const std::uint64_t base =
      kSampledStackBase +
      warp_arena_span(k.stack_bound(), entry, cfg) * (w.first_point / ws);
  auto slot = [&](std::uint32_t level, std::uint32_t lane) {
    return SampledAccess{
        kStackGroup, base + interleaved_stack_offset(level, lane, ws, entry),
        entry};
  };
  const auto n_lanes = static_cast<std::uint32_t>(lanes.size());
  std::vector<std::uint64_t>& out =
      lockstep ? w.lockstep_segments : w.nolockstep_segments;
  for (std::uint32_t l = 0; l < n_lanes; ++l)
    m.add(l, lanes[l], 0, lanes[l].init_end);
  m.commit(out);

  if (!lockstep) {
    for (std::uint32_t t = 0; t < w.longest; ++t) {
      for (std::uint32_t l = 0; l < n_lanes; ++l)
        if (t < lanes[l].visits.size())
          m.add(l, slot(lanes[l].visits[t].level, l));
      m.commit(out);
      for (std::uint32_t l = 0; l < n_lanes; ++l)
        if (t < lanes[l].visits.size()) {
          const LaneVisit& v = lanes[l].visits[t];
          m.add(l, lanes[l], v.loads_begin, v.children_begin);
        }
      m.commit(out);
      for (std::uint32_t l = 0; l < n_lanes; ++l) {
        if (t >= lanes[l].visits.size()) continue;
        const LaneVisit& v = lanes[l].visits[t];
        if (!v.descended) continue;
        m.add(l, lanes[l], v.children_begin, v.end);
        for (std::uint32_t j = 0; j < v.children; ++j)
          m.add(l, slot(v.level + j, l));
      }
      m.commit(out);
    }
    return;
  }

  struct At {
    NodeId node;
    std::uint32_t lane, visit;
  };
  std::vector<At> order;
  order.reserve(w.lane_visits);
  for (std::uint32_t l = 0; l < n_lanes; ++l)
    for (std::uint32_t t = 0; t < lanes[l].visits.size(); ++t)
      order.push_back({lanes[l].visits[t].node, l, t});
  std::sort(order.begin(), order.end(), [](const At& a, const At& b) {
    return a.node != b.node ? a.node < b.node : a.lane < b.lane;
  });
  auto visit_of = [&](const At& a) -> const LaneVisit& {
    return lanes[a.lane].visits[a.visit];
  };
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    while (j < order.size() && order[j].node == order[i].node) ++j;
    const std::uint32_t level = visit_of(order[i]).level;
    for (std::size_t e = i; e < j; ++e) {
      if constexpr (kernel_has_lane_arg<K>)
        m.add(order[e].lane, slot(level, order[e].lane));
      const LaneVisit& v = visit_of(order[e]);
      m.add(order[e].lane, lanes[order[e].lane], v.loads_begin,
            v.children_begin);
    }
    m.commit(out);
    const auto leader =
        std::find_if(order.begin() + static_cast<std::ptrdiff_t>(i),
                     order.begin() + static_cast<std::ptrdiff_t>(j),
                     [&](const At& a) { return visit_of(a).descended; });
    if (leader != order.begin() + static_cast<std::ptrdiff_t>(j)) {
      if constexpr (K::kNumCallSets > 1) ++w.callset_votes;
      const LaneVisit& v = visit_of(*leader);
      m.add(leader->lane, lanes[leader->lane], v.children_begin, v.end);
      m.commit(out);
      if constexpr (kernel_has_lane_arg<K>) {
        for (std::size_t e = i; e < j; ++e)
          if (visit_of(order[e]).descended)
            for (std::uint32_t c = 0; c < v.children; ++c)
              m.add(order[e].lane, slot(level + c, order[e].lane));
        m.commit(out);
      }
    }
    i = j;
  }
}

}  // namespace detail

// Record the node ids one point's traversal visits (autoropes semantics).
template <TraversalKernel K>
std::vector<NodeId> record_traversal(const K& k, std::uint32_t pid) {
  const detail::LaneRecord r = detail::record_lane(k, pid, nullptr);
  std::vector<NodeId> visited;
  visited.reserve(r.visits.size());
  for (const detail::LaneVisit& v : r.visits) visited.push_back(v.node);
  return visited;
}

// Sample 2 x `samples` lanes of a launch of `k` on `cfg` as warp-aligned
// runs (header comment) and measure them. A run covers the even part of a
// warp, clipped to the lanes still wanted and to the input's end (two
// lanes at least, so a pair never straddles runs). It starts at a warp
// with at least two points, drawn stratified: with R runs to fill, run r
// is drawn uniformly from the r-th of R equal slices of those warps (any
// of them when the slice is empty), so the runs spread over the input --
// a sorted input's regions cost differently, and the random-pair
// baseline wants distant warps. `space`, the address space holding the kernel's
// buffers, adds the runs' segment streams; it is only read. With a
// single run no random pair exists and the baseline stays 0, so the lift
// degenerates to the raw mean. An input of fewer than two points samples
// nothing; a device WarpMemory cannot model throws std::invalid_argument.
template <TraversalKernel K>
ProfileReport profile_similarity(const K& k, std::size_t samples,
                                 std::uint64_t seed,
                                 const DeviceConfig& cfg = DeviceConfig{},
                                 const GpuAddressSpace* space = nullptr) {
  WarpMemory::check_device(cfg);
  ProfileReport r;
  const std::size_t n = k.num_points();
  if (n < 2) return r;
  const auto ws = static_cast<std::size_t>(cfg.warp_size);
  const std::size_t run_cap = std::max<std::size_t>(2, ws & ~std::size_t{1});
  const auto starts = static_cast<std::uint32_t>((n - 2) / ws + 1);
  const std::size_t total = 2 * samples;
  const std::size_t strata = (total + run_cap - 1) / run_cap;

  // Draw every run first, from the one Pcg32 sequence, so which points are
  // sampled never depends on how the work below is scheduled.
  Pcg32 rng(seed, 11);
  for (std::size_t lane = 0, drawn = 0; lane < total; ++drawn) {
    const std::size_t stratum = drawn % strata;
    const auto lo = static_cast<std::uint32_t>(stratum * starts / strata);
    const auto hi =
        static_cast<std::uint32_t>((stratum + 1) * starts / strata);
    const std::uint32_t w =
        hi > lo ? lo + rng.next_below(hi - lo) : rng.next_below(starts);
    SampledWarp& sw = r.warps.emplace_back();
    const std::size_t first = static_cast<std::size_t>(w) * ws;
    sw.first_point = static_cast<std::uint32_t>(first);
    sw.lanes = static_cast<std::uint32_t>(
        std::min({run_cap, total - lane, n - first}) & ~std::size_t{1});
    lane += sw.lanes;
  }

  // Run by run, record the lanes and then model the run's two streams on
  // the OpenMP team; only one run's records are held at a time, and every
  // item writes only its own slot, so the report is byte-identical for any
  // thread count. The similarity pairs below need each lane's node ids.
  r.traversal_visits.reserve(total);
  std::vector<std::vector<NodeId>> nodes;  // per lane
  nodes.reserve(total);
  std::vector<detail::LaneRecord> run;
  std::vector<NodeId> all;
  for (SampledWarp& sw : r.warps) {
    run.resize(sw.lanes);
#pragma omp parallel for schedule(dynamic, 1)
    for (std::int64_t l = 0; l < static_cast<std::int64_t>(sw.lanes); ++l)
      run[static_cast<std::size_t>(l)] = detail::record_lane(
          k, sw.first_point + static_cast<std::uint32_t>(l), space);
    all.clear();
    for (const detail::LaneRecord& lr : run) {
      std::vector<NodeId>& seen = nodes.emplace_back();
      for (const detail::LaneVisit& v : lr.visits) seen.push_back(v.node);
      const auto visits = static_cast<std::uint32_t>(seen.size());
      r.traversal_visits.push_back(visits);
      sw.lane_visits += visits;
      sw.longest = std::max(sw.longest, visits);
      all.insert(all.end(), seen.begin(), seen.end());
    }
    std::sort(all.begin(), all.end());
    sw.union_visits = static_cast<std::uint64_t>(
        std::unique(all.begin(), all.end()) - all.begin());
    if (space) {
#pragma omp parallel for schedule(dynamic, 1)
      for (int lockstep = 0; lockstep < 2; ++lockstep)
        detail::model_warp_stream(k, run, cfg, lockstep == 1, sw);
    }
    r.sampled_visits += sw.lane_visits;
  }

  // The similarity pairs, each scored on its own slot and summed in pair
  // order: the adjacent (pid, pid + 1) pairs, then the random-pair
  // baseline.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t s = 0; s < samples; ++s)
    pairs.emplace_back(2 * s, 2 * s + 1);
  for (std::size_t i = 0, lane = 0; i + 1 < r.warps.size(); ++i) {
    const std::size_t next = lane + r.warps[i].lanes;
    const std::uint32_t common =
        std::min(r.warps[i].lanes, r.warps[i + 1].lanes);
    for (std::uint32_t off = 0; off < common; off += 2)
      pairs.emplace_back(lane + off, next + off);
    lane = next;
  }
  std::vector<double> jaccard(pairs.size());
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t p = 0; p < static_cast<std::int64_t>(pairs.size()); ++p) {
    const auto [a, b] = pairs[static_cast<std::size_t>(p)];
    jaccard[static_cast<std::size_t>(p)] =
        traversal_jaccard(nodes[a], nodes[b]);
  }
  double adjacent = 0;
  for (std::size_t p = 0; p < samples; ++p) adjacent += jaccard[p];
  double baseline = 0;
  for (std::size_t p = samples; p < pairs.size(); ++p) baseline += jaccard[p];
  const std::size_t baseline_pairs = pairs.size() - samples;
  r.samples = samples;
  r.mean_similarity = samples ? adjacent / static_cast<double>(samples) : 0.0;
  r.baseline_similarity =
      baseline_pairs ? baseline / static_cast<double>(baseline_pairs) : 0.0;
  return r;
}

}  // namespace tt
