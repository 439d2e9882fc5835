// ConvergencePolicy layer: the warp schedule of each execution variant --
// which lanes execute each step, and where control reconverges.
//
//   LoopHeadReconvergence      -- per-lane traversal; control re-converges
//     at the loop head every iteration, but once lanes' traversals diverge
//     their node loads stop coalescing (paper section 4.1).
//   WarpAndTruncation          -- lockstep union traversal (section 4):
//     the warp walks the union of its lanes' traversals behind a lane
//     mask; a warp-wide AND decides truncation, and guided kernels
//     annotated kCallSetsEquivalent use the section-4.3 majority vote.
//     Composes with either a WarpStack (autoropes, Figure 8) or spilled
//     CallFrames (recursion over the union, footnote 5).
//   MaxDepthCallReconvergence  -- the naive CUDA port: per-lane recursion
//     where hardware reconverges only at call boundaries, modelled by the
//     max-depth rule -- each step, only the lanes at the current deepest
//     call level that share the leader's node execute.
//
// Both reconvergence schedules also compose with the stackless policies
// (StacklessRope / IndexWalk, stack_policy.h): the per-lane schedule walks
// each lane's own rope cursor, the lockstep schedule shares one cursor
// with per-lane resume points -- no stack state in either case, so the
// profiler's `stack` bucket is exactly zero for the stackless variants.
//
// Policies drive the traversal through WarpEngine services only: stack
// policies (stack_policy.h) account for continuation traffic, the engine
// owns counters and the single trace-emission site. All variants execute
// the *same kernel semantics*; only event counts (and therefore modelled
// time) differ -- enforced by the cross-variant equivalence tests.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/stack_policy.h"
#include "core/warp_engine.h"

namespace tt {

namespace detail {

// Per-lane stackless rope walk shared by the StacklessRope / IndexWalk
// compositions of LoopHeadReconvergence: each lane follows its own DFS
// cursor (descend == cur + 1 under the left-biased layout, truncate ==
// the policy's escape), so its visit sequence is exactly the per-lane
// rope-stack traversal's -- byte-identical results by construction. No
// stack exists, so nothing ever charges the `stack` bucket and overflow
// is impossible.
template <TraversalKernel K, class SP>
void run_lane_ropewalk(WarpEngine<K>& eng, const SP& sp) {
  const K& k = eng.kernel();
  const int lanes = eng.lanes();
  typename K::LArg no_larg{};

  std::vector<NodeId> cur(static_cast<std::size_t>(lanes), k.root());
  for (;;) {
    int active = 0;
    std::uint32_t act_mask = 0;
    for (int l = 0; l < lanes; ++l) {
      if (cur[static_cast<std::size_t>(l)] == StaticRopes::kEndOfTraversal)
        continue;
      ++active;
      act_mask |= 1u << l;
    }
    if (active == 0) break;
    eng.stats().note_warp_step(eng.cfg().c_step);
    eng.stats().note_visit_cycles(eng.cfg().c_visit);
    eng.stats().note_active_lanes(active);
    eng.profile_step(0, active);

    std::uint32_t trunc_mask = 0;
    for (int l = 0; l < lanes; ++l) {
      NodeId& c = cur[static_cast<std::size_t>(l)];
      if (c == StaticRopes::kEndOfTraversal) continue;
      eng.count_point_visit(l);
      bool descend = k.visit(c, k.uarg_at(c), no_larg, eng.state(l),
                             eng.mem(), l);
      if (descend) {
        c = c + 1;
      } else {
        trunc_mask |= 1u << l;
        sp.record_escape(eng, l, c);
        c = sp.escape(c);
      }
    }
    eng.mem().commit();  // node loads + per-lane rope loads
    // Lanes sit on distinct nodes, so the node field is not warp-uniform.
    eng.emit(obs::TraceEventKind::kVisit, 0xffffffffu, act_mask, 0);
    if (trunc_mask != 0)
      eng.emit(obs::TraceEventKind::kTruncate, 0xffffffffu, trunc_mask, 0);
  }
}

}  // namespace detail

// ---------------------------------------------------------------------
// Per-lane iterative traversal over per-lane rope stacks (Figure 6/7).
// ---------------------------------------------------------------------
struct LoopHeadReconvergence {
  template <TraversalKernel K>
  void run(WarpEngine<K>& eng, const LaneRopeStack& sp) const {
    using ChildT = typename WarpEngine<K>::ChildT;
    const K& k = eng.kernel();
    const int lanes = eng.lanes();

    std::vector<std::vector<ChildT>> stk(static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l)
      stk[static_cast<std::size_t>(l)].push_back(
          {k.root(), k.root_uarg(), k.root_larg()});

    std::vector<ChildT> current(static_cast<std::size_t>(lanes));
    std::vector<std::int8_t> popped(static_cast<std::size_t>(lanes));
    ChildT out[K::kFanout];

    for (;;) {
      int active = 0;
      std::uint32_t pop_mask = 0;
      std::uint32_t pop_depth = 0;  // deepest stack among popping lanes
      for (int l = 0; l < lanes; ++l) {
        auto& s = stk[static_cast<std::size_t>(l)];
        popped[static_cast<std::size_t>(l)] = !s.empty();
        if (popped[static_cast<std::size_t>(l)]) {
          current[static_cast<std::size_t>(l)] = s.back();
          s.pop_back();
          sp.record_pop(eng, l, s.size());
          ++active;
          pop_mask |= 1u << l;
          pop_depth = std::max(pop_depth, static_cast<std::uint32_t>(s.size()));
        }
      }
      if (active == 0) break;
      eng.stats().note_warp_step(eng.cfg().c_step);
      eng.stats().note_active_lanes(active);
      eng.profile_step(pop_depth, active);
      eng.mem().commit();  // stack pops
      // Lanes pop distinct nodes, so the node field is not warp-uniform.
      eng.emit(obs::TraceEventKind::kPop, 0xffffffffu, pop_mask, pop_depth);

      std::uint32_t trunc_mask = 0;
      eng.stats().note_visit_cycles(eng.cfg().c_visit);
      for (int l = 0; l < lanes; ++l) {
        if (!popped[static_cast<std::size_t>(l)]) continue;
        eng.count_point_visit(l);
        const ChildT& cur = current[static_cast<std::size_t>(l)];
        bool descend =
            k.visit(cur.node, cur.uarg, cur.larg, eng.state(l), eng.mem(), l);
        if (!descend) {
          popped[static_cast<std::size_t>(l)] = 0;
          trunc_mask |= 1u << l;
          continue;
        }
      }
      eng.mem().commit();  // node loads (+ leaf payloads)
      eng.emit(obs::TraceEventKind::kVisit, 0xffffffffu, pop_mask, pop_depth);
      if (trunc_mask != 0)
        eng.emit(obs::TraceEventKind::kTruncate, 0xffffffffu, trunc_mask,
                 pop_depth);

      std::uint32_t push_count = 0;
      std::uint32_t push_mask = 0;
      for (int l = 0; l < lanes; ++l) {
        if (!popped[static_cast<std::size_t>(l)]) continue;
        auto& s = stk[static_cast<std::size_t>(l)];
        const ChildT& cur = current[static_cast<std::size_t>(l)];
        int cs = K::kNumCallSets > 1 ? k.choose_callset(cur.node, eng.state(l))
                                     : 0;
        int cnt = k.children(cur.node, cur.uarg, cs, eng.state(l), out,
                             eng.mem(), l);
        for (int i = cnt - 1; i >= 0; --i) {
          sp.record_push(eng, l, s.size());
          s.push_back(out[i]);
        }
        if (cnt > 0) {
          push_count += static_cast<std::uint32_t>(cnt);
          push_mask |= 1u << l;
        }
        eng.check_rope_depth(s.size());
      }
      eng.mem().commit();  // children loads + stack pushes
      if (push_count != 0)
        eng.emit(obs::TraceEventKind::kPush, 0xffffffffu, push_mask,
                 pop_depth + 1, push_count);
    }
  }

  // Stackless flavors: the same per-lane schedule with no stack at all --
  // truncation follows the escape-index rope (one global rope load) or
  // the Wald-style index arithmetic (no memory traffic either).
  template <StacklessCompatibleKernel K>
  void run(WarpEngine<K>& eng, const StacklessRope& sp) const {
    detail::run_lane_ropewalk(eng, sp);
  }
  template <StacklessCompatibleKernel K>
  void run(WarpEngine<K>& eng, const IndexWalk& sp) const {
    detail::run_lane_ropewalk(eng, sp);
  }
};

// ---------------------------------------------------------------------
// Lockstep union traversal with warp-wide AND truncation (section 4).
// ---------------------------------------------------------------------
struct WarpAndTruncation {
  // Autoropes flavor: one masked rope stack per warp (Figure 8). The
  // warp-shared record moves through the WarpStack policy; per-lane LArg
  // planes ride the interleaved global stack.
  template <TraversalKernel K>
  void run(WarpEngine<K>& eng, const WarpStack& sp) const {
    using ChildT = typename WarpEngine<K>::ChildT;
    using LArg = typename K::LArg;
    const K& k = eng.kernel();
    const int lanes = eng.lanes();

    struct WEntry {
      NodeId node;
      typename K::UArg uarg;
      std::uint32_t mask;
    };
    std::vector<WEntry> stk;
    // Per-lane argument planes, parallel to the warp stack (interleaved in
    // global memory when the kernel has LArgs).
    std::vector<std::vector<LArg>> largs;

    stk.push_back({k.root(), k.root_uarg(), eng.full_mask()});
    largs.push_back(
        std::vector<LArg>(static_cast<std::size_t>(lanes), k.root_larg()));

    ChildT out[K::kFanout];
    typename WarpEngine<K>::LaneLArgs lane_largs;

    while (!stk.empty()) {
      WEntry top = stk.back();
      stk.pop_back();
      std::vector<LArg> top_largs = std::move(largs.back());
      largs.pop_back();
      eng.count_warp_pop();
      eng.stats().note_warp_step(eng.cfg().c_step);
      sp.record_warp_op(eng, stk.size());  // pop the warp-level entry
      eng.emit(obs::TraceEventKind::kPop, top.node, top.mask,
               static_cast<std::uint32_t>(stk.size()));
      if constexpr (kernel_has_lane_arg<K>) {
        // The pop re-reads the plane level the matching push wrote.
        for (int l = 0; l < lanes; ++l)
          if (top.mask & (1u << l)) sp.record_lane_plane(eng, l, stk.size());
      }

      std::uint32_t new_mask = eng.union_visit_and_vote(
          top.node, top.uarg, top_largs, top.mask,
          static_cast<std::uint32_t>(stk.size()));
      if (new_mask == 0) continue;

      int cs = eng.vote_callset(top.node, new_mask,
                                static_cast<std::uint32_t>(stk.size()));
      int cnt =
          eng.union_children(top.node, top.uarg, cs, new_mask, out, lane_largs);

      // Push in reverse so pops preserve the recursive order (section 3.3).
      for (int i = cnt - 1; i >= 0; --i) {
        sp.record_warp_op(eng, stk.size());
        std::vector<LArg> child_largs(static_cast<std::size_t>(lanes));
        if constexpr (kernel_has_lane_arg<K>) {
          for (int l = 0; l < lanes; ++l) {
            if (!(new_mask & (1u << l))) continue;
            child_largs[static_cast<std::size_t>(l)] =
                lane_largs[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
            sp.record_lane_plane(eng, l, stk.size());
          }
        }
        stk.push_back({out[i].node, out[i].uarg, new_mask});
        largs.push_back(std::move(child_largs));
        eng.emit(obs::TraceEventKind::kPush, out[i].node, new_mask,
                 static_cast<std::uint32_t>(stk.size()));
      }
      eng.mem().commit();  // interleaved per-lane argument stores (coalesced)
      eng.check_rope_depth(stk.size());
    }
  }

  // Recursive flavor (footnote 5): the warp recurses over the union
  // traversal with explicit masking. Same visit set as the autoropes
  // flavor, but every level pays a call/return pair plus per-lane frame
  // traffic through the CallFrames policy. The recursion is driven by an
  // explicit frame stack so the engine loop stays iterative.
  template <TraversalKernel K>
  void run(WarpEngine<K>& eng, const CallFrames& sp) const {
    using ChildT = typename WarpEngine<K>::ChildT;
    using LArg = typename K::LArg;
    const K& k = eng.kernel();
    const int lanes = eng.lanes();

    struct Frame {
      NodeId node = kNullNode;
      typename K::UArg uarg{};
      std::uint32_t mask = 0;       // lanes participating in this call
      std::vector<LArg> largs;      // per-lane args of this call
      std::uint32_t new_mask = 0;   // survivors after the visit vote
      std::array<ChildT, K::kFanout> kids{};
      typename WarpEngine<K>::LaneLArgs kid_largs{};
      int cnt = 0;
      int cursor = 0;
      bool visited = false;
    };

    std::vector<Frame> stk;
    {
      Frame root;
      root.node = k.root();
      root.uarg = k.root_uarg();
      root.mask = eng.full_mask();
      root.largs.assign(static_cast<std::size_t>(lanes), k.root_larg());
      stk.push_back(std::move(root));
    }

    while (!stk.empty()) {
      Frame& f = stk.back();
      const auto depth = static_cast<std::uint32_t>(stk.size() - 1);
      if (!f.visited) {
        f.visited = true;
        eng.count_warp_pop();
        eng.stats().note_warp_step(eng.cfg().c_step);
        eng.emit(obs::TraceEventKind::kPop, f.node, f.mask, depth);
        f.new_mask =
            eng.union_visit_and_vote(f.node, f.uarg, f.largs, f.mask, depth);
        if (f.new_mask != 0) {
          int cs = eng.vote_callset(f.node, f.new_mask, depth);
          f.cnt = eng.union_children(f.node, f.uarg, cs, f.new_mask,
                                     f.kids.data(), f.kid_largs);
        }
        continue;
      }
      if (f.cursor < f.cnt) {
        const int i = f.cursor++;
        // Call: every masked lane spills its frame to local memory.
        eng.stats().note_call(eng.cfg().c_call);
        Frame child;
        child.node = f.kids[static_cast<std::size_t>(i)].node;
        child.uarg = f.kids[static_cast<std::size_t>(i)].uarg;
        child.mask = f.new_mask;
        child.largs.resize(static_cast<std::size_t>(lanes));
        for (int l = 0; l < lanes; ++l) {
          if (!(f.new_mask & (1u << l))) continue;
          sp.record_frame(eng, l, depth);
          if constexpr (kernel_has_lane_arg<K>)
            child.largs[static_cast<std::size_t>(l)] =
                f.kid_largs[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)];
        }
        eng.mem().commit();
        eng.emit(obs::TraceEventKind::kCall, child.node, f.new_mask,
                 depth + 1);
        stk.push_back(std::move(child));  // invalidates f; loop re-derives
        continue;
      }
      // All children done: return -- restore the caller's frame.
      stk.pop_back();
      if (!stk.empty()) {
        Frame& p = stk.back();
        const auto pdepth = static_cast<std::uint32_t>(stk.size() - 1);
        for (int l = 0; l < lanes; ++l)
          if (p.new_mask & (1u << l)) sp.record_frame(eng, l, pdepth);
        eng.mem().commit();
        eng.emit(obs::TraceEventKind::kReturn, p.node, p.new_mask, pdepth);
      }
    }
  }

  // Stackless flavor: the warp walks the union traversal behind a shared
  // rope cursor instead of a per-warp stack (section 3's lockstep rope walk
  // as a composition). A lane that truncates at node n records
  // resume_at = rope[n] and stays masked until the cursor reaches it --
  // exact because DFS ids only move forward. Each lane therefore visits
  // exactly its own traversal set, byte-identical to the stack-based
  // union traversal, while no stack bytes exist and nothing charges the
  // `stack` bucket.
  template <StacklessCompatibleKernel K>
  void run(WarpEngine<K>& eng, const StacklessRope& sp) const {
    using LArg = typename K::LArg;
    const K& k = eng.kernel();
    const int lanes = eng.lanes();
    const std::vector<LArg> no_largs(static_cast<std::size_t>(lanes));

    // resume_at semantics: kNullNode = active; kNeverResume = the lane's
    // traversal ended (its truncation rope pointed past the tree);
    // otherwise the DFS id at which the lane unmasks.
    constexpr NodeId kNeverResume = std::numeric_limits<NodeId>::max();
    std::vector<NodeId> resume_at(static_cast<std::size_t>(lanes), kNullNode);

    NodeId cur = k.root();
    while (cur != StaticRopes::kEndOfTraversal) {
      std::uint32_t mask = 0;
      for (int l = 0; l < lanes; ++l) {
        NodeId& r = resume_at[static_cast<std::size_t>(l)];
        if (r != kNullNode && cur < r) continue;
        r = kNullNode;
        mask |= 1u << l;
      }
      eng.count_warp_pop();
      eng.stats().note_warp_step(eng.cfg().c_step);
      eng.emit(obs::TraceEventKind::kPop, cur, mask, 0);

      // Visit + warp-wide AND truncation vote (charges c_visit, per-lane
      // visits, active lanes, the vote, and emits kVisit / kTruncate).
      std::uint32_t new_mask =
          eng.union_visit_and_vote(cur, k.uarg_at(cur), no_largs, mask, 0);
      for (int l = 0; l < lanes; ++l) {
        if (!(mask & (1u << l)) || (new_mask & (1u << l))) continue;
        NodeId rope = sp.escape(cur);
        resume_at[static_cast<std::size_t>(l)] =
            rope == StaticRopes::kEndOfTraversal ? kNeverResume : rope;
      }
      if (new_mask != 0) {
        cur = cur + 1;
      } else {
        // Whole-warp escape: one rope load for the shared cursor.
        sp.record_escape(eng, 0, cur);
        cur = sp.escape(cur);
        eng.mem().commit();
      }
    }
  }
};

// ---------------------------------------------------------------------
// Per-lane recursion with call-boundary reconvergence (the naive CUDA
// port). Each step executes one divergent call path: among the lanes at
// the deepest live call level, only those sitting on the leader's tree
// node run; lanes on other nodes (and all shallower lanes) stall. Similar
// traversals (sorted inputs) keep the whole warp in one group -- naive
// recursion is then surprisingly competitive, matching the paper's
// negative sorted-N improvements -- while divergent traversals serialize
// lane by lane.
// ---------------------------------------------------------------------
struct MaxDepthCallReconvergence {
  template <TraversalKernel K>
  void run(WarpEngine<K>& eng, const CallFrames& sp) const {
    using ChildT = typename WarpEngine<K>::ChildT;
    const K& k = eng.kernel();
    const int lanes = eng.lanes();

    struct Frame {
      ChildT self;
      ChildT kids[K::kFanout];
      int cnt = 0;
      int cursor = 0;
      bool visited = false;
    };
    std::vector<std::vector<Frame>> stk(static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      Frame f;
      f.self = {k.root(), k.root_uarg(), k.root_larg()};
      stk[static_cast<std::size_t>(l)].push_back(f);
    }

    for (;;) {
      std::size_t max_depth = 0;
      int alive = 0;
      for (int l = 0; l < lanes; ++l) {
        if (stk[static_cast<std::size_t>(l)].empty()) continue;
        ++alive;
        max_depth = std::max(max_depth, stk[static_cast<std::size_t>(l)].size());
      }
      if (alive == 0) break;

      // The executable group: deepest lanes that share the leader's node.
      NodeId leader_node = kNullNode;
      for (int l = 0; l < lanes; ++l) {
        auto& s = stk[static_cast<std::size_t>(l)];
        if (s.empty() || s.size() != max_depth) continue;
        leader_node = s.back().self.node;
        break;
      }

      eng.stats().note_warp_step(eng.cfg().c_step);
      int active = 0;
      bool any_visit = false, any_call = false;
      std::uint32_t visit_mask = 0, trunc_mask = 0, call_mask = 0,
                    ret_mask = 0;
      for (int l = 0; l < lanes; ++l) {
        auto& s = stk[static_cast<std::size_t>(l)];
        if (s.empty() || s.size() != max_depth ||
            s.back().self.node != leader_node)
          continue;
        ++active;
        Frame& f = s.back();
        if (!f.visited) {
          f.visited = true;
          eng.count_point_visit(l);
          any_visit = true;
          visit_mask |= 1u << l;
          bool descend = k.visit(f.self.node, f.self.uarg, f.self.larg,
                                 eng.state(l), eng.mem(), l);
          if (descend) {
            int cs = K::kNumCallSets > 1
                         ? k.choose_callset(f.self.node, eng.state(l))
                         : 0;
            f.cnt = k.children(f.self.node, f.self.uarg, cs, eng.state(l),
                               f.kids, eng.mem(), l);
          } else {
            f.cnt = 0;
            trunc_mask |= 1u << l;
          }
        } else if (f.cursor < f.cnt) {
          // Call: spill the live frame and descend into the next child.
          any_call = true;
          // c_call is charged once per step (the divergent call path),
          // below; the counter tracks each lane's call.
          eng.stats().note_call(0.0);
          call_mask |= 1u << l;
          Frame child;
          child.self = f.kids[f.cursor++];
          sp.record_frame(eng, l, s.size() - 1);
          s.push_back(child);
        } else {
          // Return: restore the caller's frame from local memory.
          any_call = true;
          ret_mask |= 1u << l;
          sp.record_frame(eng, l, s.size() >= 2 ? s.size() - 2 : 0);
          s.pop_back();
        }
        eng.stats().note_stack_depth(s.size());
      }
      eng.stats().note_active_lanes(active);
      eng.profile_step(static_cast<std::uint32_t>(max_depth), active);
      if (any_visit) eng.stats().note_visit_cycles(eng.cfg().c_visit);
      if (any_call) eng.stats().note_call_cycles(eng.cfg().c_call);
      eng.mem().commit();
      const auto depth = static_cast<std::uint32_t>(max_depth);
      if (visit_mask != 0)
        eng.emit(obs::TraceEventKind::kVisit, leader_node, visit_mask, depth);
      if (trunc_mask != 0)
        eng.emit(obs::TraceEventKind::kTruncate, leader_node, trunc_mask,
                 depth);
      if (call_mask != 0)
        eng.emit(obs::TraceEventKind::kCall, leader_node, call_mask,
                 depth + 1);
      if (ret_mask != 0)
        eng.emit(obs::TraceEventKind::kReturn, leader_node, ret_mask,
                 depth - 1);
    }
  }
};

}  // namespace tt
