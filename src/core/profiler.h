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

#include <omp.h>

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
// The same for sets already sorted ascending without repeats; it copies
// nothing.
double sorted_jaccard(std::span<const NodeId> a, std::span<const NodeId> b);

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

// The sampler's workers fill buffers the calling thread owns and sizes,
// so no worker allocates: glibc keeps a block a worker allocates in that
// thread's own arena, out of reach of the calling thread's later
// allocations. Appends `x` to `v`, beyond its reserved capacity only when
// `may_grow` (on the calling thread); a worker drops what does not fit.
template <class T>
void append_reserved(std::vector<T>& v, const T& x, bool may_grow) {
  if (may_grow || v.size() < v.capacity()) v.push_back(x);
}

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
// phase: init's loads are acc[0, init_end). Recorded on a worker, it
// fills only the capacity the calling thread reserved: `acc_wanted` and
// `visits_wanted` count what the traversal produced, and a record that
// did not fit is not complete() until grown and recorded again.
struct LaneRecord {
  std::vector<SampledAccess> acc;
  std::uint32_t init_end = 0;
  std::vector<LaneVisit> visits;
  std::uint32_t acc_wanted = 0, visits_wanted = 0;

  bool complete() const {
    return acc.size() == acc_wanted && visits.size() == visits_wanted;
  }
};

// The sampler's memory recorder: resolves each load against the launch's
// address space and appends it to the record; records nothing without a
// space.
class AccessRecorder {
 public:
  AccessRecorder(const GpuAddressSpace* space, LaneRecord& r, bool may_grow)
      : space_(space), r_(&r), may_grow_(may_grow) {}
  void lane_load(int, BufferId buf, std::uint64_t idx) {
    if (space_)
      add({buf, space_->addr(buf, idx),
           static_cast<std::uint32_t>(space_->elem_bytes(buf))});
  }
  void lane_load_raw(int, std::uint64_t addr, std::uint32_t bytes) {
    if (space_) add({kStackGroup, addr, bytes});
  }
  std::uint64_t commit() { return 0; }

 private:
  void add(const SampledAccess& a) {
    ++r_->acc_wanted;
    append_reserved(r_->acc, a, may_grow_);
  }
  const GpuAddressSpace* space_;
  LaneRecord* r_;
  bool may_grow_;
};

template <TraversalKernel K>
using DfsStack = std::vector<Child<typename K::UArg, typename K::LArg>>;

// Record point `pid`'s traversal into `out`, within its reserved
// capacity unless `may_grow` (see LaneRecord). `stack` is the DFS stack;
// it holds what a rope stack would, so once reserved to the kernel's
// stack_bound() it never grows. The buffers are moved to locals for the
// walk, so threads recording neighbouring lanes never write one cache
// line.
template <TraversalKernel K>
void record_lane(const K& k, std::uint32_t pid, const GpuAddressSpace* space,
                 LaneRecord& out, DfsStack<K>& stack, bool may_grow) {
  LaneRecord r = std::move(out);
  DfsStack<K> stk = std::move(stack);
  r.acc.clear();
  r.visits.clear();
  r.acc_wanted = r.visits_wanted = 0;
  AccessRecorder mem(space, r, may_grow);
  typename K::State st = k.init(pid, mem, 0);
  r.init_end = r.acc_wanted;
  stk.clear();
  Child<typename K::UArg, typename K::LArg> kids[K::kFanout];
  stk.push_back({k.root(), k.root_uarg(), k.root_larg()});
  while (!stk.empty()) {
    const auto top = stk.back();
    stk.pop_back();
    LaneVisit v;
    v.node = top.node;
    v.level = static_cast<std::uint32_t>(stk.size());
    v.loads_begin = r.acc_wanted;
    v.descended = k.visit(top.node, top.uarg, top.larg, st, mem, 0);
    v.children_begin = r.acc_wanted;
    if (v.descended) {
      const int cs = K::kNumCallSets > 1 ? k.choose_callset(top.node, st) : 0;
      const int cnt = k.children(top.node, top.uarg, cs, st, kids, mem, 0);
      for (int i = cnt - 1; i >= 0; --i) stk.push_back(kids[i]);
      v.children = static_cast<std::uint32_t>(cnt);
    }
    v.end = r.acc_wanted;
    ++r.visits_wanted;
    append_reserved(r.visits, v, may_grow);
  }
  out = std::move(r);
  stack = std::move(stk);
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

  // Room for commits of up to `entries` accesses whose loads each cover
  // up to `segments` segments.
  void reserve(std::size_t entries, std::size_t segments) {
    pending_.reserve(entries);
    keys_.reserve(entries);
    group_.reserve(entries);
    load_.reserve(kMaxLoadAccesses);
    segs_.reserve(segments);
  }

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

// A lane's visit, in the lockstep union traversal's node order.
struct UnionVisit {
  NodeId node;
  std::uint32_t lane, visit;
};

// What modelling one segment stream fills: the commit model, the union
// order (lockstep) and the segments. reserve() sizes them on the calling
// thread for a run's records, so the worker modelling the stream
// allocates nothing: a commit holds at most every lane's loads of one
// visit plus a stack slot per pushed child (or all lanes' init loads), an
// access of b bytes covers at most b / segment + 2 segments, and the
// stream adds each recorded access at most once plus a slot per visit
// and per child. A bound that falls short costs an allocation, never a
// different price. Cache-line aligned, so the two streams' threads never
// write one line.
template <TraversalKernel K>
struct alignas(64) StreamScratch {
  CommitModel model;
  std::vector<UnionVisit> order;
  std::vector<std::uint64_t> segments;

  explicit StreamScratch(const DeviceConfig& cfg)
      : model(static_cast<std::uint32_t>(cfg.transaction_bytes),
              kernel_shares_node_loads<K>) {}

  void reserve(std::span<const LaneRecord> lanes, const DeviceConfig& cfg) {
    std::size_t init = 0, acc = 0, visits = 0, widest_visit = 0;
    std::uint32_t widest_access =
        std::max(arena_entry_bytes<K>(false), arena_entry_bytes<K>(true));
    for (const LaneRecord& r : lanes) {
      init += r.init_end;
      acc += r.acc.size();
      visits += r.visits.size();
      for (const LaneVisit& v : r.visits)
        widest_visit =
            std::max<std::size_t>(widest_visit, v.end - v.loads_begin);
      for (const SampledAccess& a : r.acc)
        widest_access = std::max(widest_access, a.bytes);
    }
    const auto tb = static_cast<std::size_t>(cfg.transaction_bytes);
    const std::size_t span = widest_access / tb + 2;
    const std::size_t per_visit = widest_visit + 1 + K::kFanout;
    model.reserve(std::max(init, lanes.size() * per_visit),
                  lanes.size() * span);
    order.reserve(visits);
    segments.reserve((acc + visits * (1 + K::kFanout)) * span);
  }
};

// One of the two segment streams of a sampled warp (SampledWarp), from
// its lanes' records, into s.segments; both open the chunk with every
// lane's init loads. Non-lockstep (LoopHeadReconvergence over
// LaneRopeStack, for nolockstep_segments): step t pops every live lane's
// t-th entry, then commits those visits' loads, then their children's
// loads with the pushes; it reads w.longest. Lockstep (WarpAndTruncation
// over a shared-memory WarpStack, for lockstep_segments; it counts
// w.callset_votes): the union of the lanes' visit sets in node-id order
// -- the left-biased DFS order an unguided union traversal pops -- each
// node committing its lanes' loads, then the first descending lane's
// children loads; kernels with per-lane arguments add their interleaved
// argument-plane reads and writes. The lockstep stream writes only
// w.callset_votes and the other reads none of it, so the two can be
// modelled concurrently, each on its own scratch.
template <TraversalKernel K>
void model_warp_stream(const K& k, std::span<const LaneRecord> lanes,
                       const DeviceConfig& cfg, bool lockstep,
                       SampledWarp& w, StreamScratch<K>& s) {
  CommitModel& m = s.model;
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
  std::vector<std::uint64_t>& out = s.segments;
  out.clear();
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

  std::vector<UnionVisit>& order = s.order;
  order.clear();
  for (std::uint32_t l = 0; l < n_lanes; ++l)
    for (std::uint32_t t = 0; t < lanes[l].visits.size(); ++t)
      order.push_back({lanes[l].visits[t].node, l, t});
  std::sort(order.begin(), order.end(),
            [](const UnionVisit& a, const UnionVisit& b) {
              return a.node != b.node ? a.node < b.node : a.lane < b.lane;
            });
  auto visit_of = [&](const UnionVisit& a) -> const LaneVisit& {
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
                     [&](const UnionVisit& a) {
                       return visit_of(a).descended;
                     });
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
  detail::LaneRecord r;
  detail::DfsStack<K> stk;
  detail::record_lane(k, pid, nullptr, r, stk, true);
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
  // thread count. The workers fill buffers this thread owns and sizes,
  // kept from run to run (append_reserved): each lane record gets room
  // for the largest lane recorded so far, and one that still did not fit
  // is recorded again once grown. The similarity pairs below need each
  // lane's node ids.
  r.traversal_visits.reserve(total);
  std::vector<std::vector<NodeId>> nodes;  // per lane
  nodes.reserve(total);
  std::vector<detail::LaneRecord> run(std::min(run_cap, total));
  std::vector<detail::DfsStack<K>> stacks(run.size());
  for (detail::DfsStack<K>& stk : stacks)
    stk.reserve(static_cast<std::size_t>(k.stack_bound()));
  std::vector<std::uint32_t> todo, again;
  todo.reserve(run.size());
  again.reserve(run.size());
  std::uint32_t most_acc = 0, most_visits = 0;
  detail::StreamScratch<K> streams[2] = {detail::StreamScratch<K>(cfg),
                                         detail::StreamScratch<K>(cfg)};
  std::vector<NodeId> all;
  for (SampledWarp& sw : r.warps) {
    const std::span<const detail::LaneRecord> lanes(run.data(), sw.lanes);
    todo.clear();
    for (std::uint32_t l = 0; l < sw.lanes; ++l) todo.push_back(l);
    while (!todo.empty()) {
      for (const std::uint32_t l : todo) {
        run[l].acc.reserve(most_acc);
        run[l].visits.reserve(most_visits);
      }
#pragma omp parallel for schedule(dynamic, 1)
      for (std::int64_t j = 0; j < static_cast<std::int64_t>(todo.size());
           ++j) {
        const std::uint32_t l = todo[static_cast<std::size_t>(j)];
        detail::record_lane(k, sw.first_point + l, space, run[l], stacks[l],
                            omp_get_thread_num() == 0);
      }
      again.clear();
      for (const std::uint32_t l : todo) {
        most_acc = std::max(most_acc, run[l].acc_wanted);
        most_visits = std::max(most_visits, run[l].visits_wanted);
        if (!run[l].complete()) again.push_back(l);
      }
      todo.swap(again);
    }
    all.clear();
    for (const detail::LaneRecord& lr : lanes) {
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
      for (detail::StreamScratch<K>& s : streams) s.reserve(lanes, cfg);
#pragma omp parallel for schedule(dynamic, 1)
      for (int lockstep = 0; lockstep < 2; ++lockstep)
        detail::model_warp_stream(k, lanes, cfg, lockstep == 1, sw,
                                  streams[lockstep]);
      sw.nolockstep_segments = streams[0].segments;
      sw.lockstep_segments = streams[1].segments;
    }
    r.sampled_visits += sw.lane_visits;
  }

  // The similarity pairs, each scored on its own slot and summed in pair
  // order: the adjacent (pid, pid + 1) pairs, then the random-pair
  // baseline. Each lane's ids are sorted into a set first, in place.
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t l = 0; l < static_cast<std::int64_t>(nodes.size()); ++l) {
    std::vector<NodeId>& ids = nodes[static_cast<std::size_t>(l)];
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
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
    jaccard[static_cast<std::size_t>(p)] = sorted_jaccard(nodes[a], nodes[b]);
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
