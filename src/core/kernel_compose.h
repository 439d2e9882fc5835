// Traversal fusion (Sakka & Kulkarni, PAPERS.md): compose two
// TraversalKernels that walk the SAME tree into one FusedKernel whose
// visit runs both payloads per node, so each node record is loaded once
// instead of twice. The composition rule is the paper's merged
// truncation: the fused traversal truncates at a node only when *both*
// constituents truncate there.
//
// When only one constituent truncates, the walk continues for the other;
// the truncated side must then contribute nothing inside the skipped
// subtree. With the left-biased DFS linearization every spatial builder
// emits, "inside n's subtree" is the contiguous id interval
// (n, rope[n]) -- exactly what the constituents' escape-index ropes
// (core/static_ropes.h) encode. Each constituent therefore carries a
// per-lane *skip interval* in the fused State: set to (n, rope[n]) when
// the constituent truncates at n, consulted (one compare pair, no memory
// traffic) before running its payload. Because every schedule visits a
// lane's nodes in increasing DFS preorder (DESIGN.md section 3.5), a
// skip interval self-expires once the walk moves past its end; it never
// needs resetting, and nested truncations simply overwrite a dead
// interval.
//
// Per-constituent visit sequences -- node ids, argument values, state
// mutation order -- are identical to the constituents' solo runs under
// every variant, which is why fused results are byte-identical to
// sequential execution (pinned by tests/core/kernel_compose_test.cpp and
// the variant fuzzer). What changes is the cost: shared node loads are
// served once (WarpMemory shared-load elision, keyed on
// kSharedNodeLoads), and the tree is walked once instead of twice, which
// is where the visit/mem_stall bucket savings in the report's fusion
// block come from.
//
// Requirements on the constituents (checked at compile time / construct
// time):
//   * both StacklessCompatibleKernel: unguided (one call set), no LArg,
//     uarg_at(n) recomputable per node, installed ropes + node buffers.
//     The fused kernel is then itself stackless-compatible, so it
//     qualifies for every variant its fanout allows.
//   * same fanout, same point count, same root, identical (non-empty)
//     rope arrays -- the operational definition of "sharing a tree".
//     Two BH timesteps share ropes when the octree is refit rather than
//     rebuilt (spatial/octree.h refit_octree keeps the topology).
//   * padding-free Result structs (the fused Result is memset before the
//     member assignments so comparisons can memcmp).
#pragma once

#include <array>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/static_ropes.h"
#include "core/traversal_kernel.h"
#include "spatial/linear_tree.h"

namespace tt {

namespace detail {

constexpr std::size_t cstr_len(const char* s) {
  std::size_t n = 0;
  while (s[n] != '\0') ++n;
  return n;
}

// Compile-time "fused(<a>+<b>)" so the fused kernel satisfies
// NamedTraversalKernel with a static-storage name.
template <class A, class B>
struct FusedNameHolder {
  static constexpr std::size_t kLen =
      6 + cstr_len(A::kName) + 1 + cstr_len(B::kName) + 2;
  static constexpr std::array<char, kLen + 1> make() {
    std::array<char, kLen + 1> s{};
    std::size_t i = 0;
    for (char c : {'f', 'u', 's', 'e', 'd', '('}) s[i++] = c;
    for (std::size_t k = 0; A::kName[k] != '\0'; ++k) s[i++] = A::kName[k];
    s[i++] = '+';
    for (std::size_t k = 0; B::kName[k] != '\0'; ++k) s[i++] = B::kName[k];
    s[i++] = ')';
    s[i] = '\0';
    return s;
  }
  static constexpr std::array<char, kLen + 1> value = make();
};

}  // namespace detail

template <class A, class B>
  requires StacklessCompatibleKernel<A> && StacklessCompatibleKernel<B> &&
           KernelHasName<A> && KernelHasName<B>
class FusedKernel {
  static_assert(A::kFanout == B::kFanout,
                "fused constituents must walk trees of the same fanout");

 public:
  static constexpr int kFanout = A::kFanout;
  static constexpr int kNumCallSets = 1;
  static constexpr bool kCallSetsEquivalent = true;
  static constexpr const char* kName =
      detail::FusedNameHolder<A, B>::value.data();
  // Constituents issue loads against the same node records; WarpMemory
  // serves the per-lane duplicates once (launch.h checks this marker).
  static constexpr bool kSharedNodeLoads = true;

  struct UArg {
    typename A::UArg a{};
    typename B::UArg b{};
  };
  using LArg = Empty;

  struct State {
    typename A::State a;
    typename B::State b;
    // Per-constituent skip interval (lo, hi): while the lane's cursor is
    // strictly inside it, that constituent's payload is suppressed
    // (its solo run never reached those nodes). (0, 0) = none.
    NodeId lo_a = 0, hi_a = 0;
    NodeId lo_b = 0, hi_b = 0;
  };

  struct Result {
    typename A::Result a;
    typename B::Result b;
  };

  FusedKernel(const A& a, const B& b) : a_(&a), b_(&b) {
    if (a.num_points() != b.num_points())
      throw std::invalid_argument(
          std::string("FusedKernel: constituents disagree on point count (") +
          A::kName + ": " + std::to_string(a.num_points()) + ", " + B::kName +
          ": " + std::to_string(b.num_points()) + ")");
    if (a.root() != b.root())
      throw std::invalid_argument(
          std::string("FusedKernel: constituents disagree on the root node (") +
          A::kName + " + " + B::kName + ")");
    if (a.ropes().rope.empty())
      throw std::invalid_argument(
          std::string("FusedKernel: constituent ") + A::kName +
          " carries no installed ropes (non-DFS relayout?); fusion needs the "
          "escape intervals");
    if (a.ropes().rope != b.ropes().rope)
      throw std::invalid_argument(
          std::string("FusedKernel: constituents do not share a tree (") +
          A::kName + " and " + B::kName +
          " carry different rope arrays); fuse only traversals of the same "
          "tree, or refit instead of rebuilding");
  }

  [[nodiscard]] NodeId root() const { return a_->root(); }
  [[nodiscard]] std::size_t num_points() const { return a_->num_points(); }
  // Each bound is a full-tree worst case, so the union walk fits in the
  // larger of the two.
  [[nodiscard]] int stack_bound() const {
    return a_->stack_bound() > b_->stack_bound() ? a_->stack_bound()
                                                 : b_->stack_bound();
  }
  [[nodiscard]] UArg root_uarg() const {
    return UArg{a_->root_uarg(), b_->root_uarg()};
  }
  [[nodiscard]] LArg root_larg() const { return {}; }
  [[nodiscard]] UArg uarg_at(NodeId n) const {
    return UArg{a_->uarg_at(n), b_->uarg_at(n)};
  }
  [[nodiscard]] const StaticRopes& ropes() const { return a_->ropes(); }
  // Order-preserving union: the shared-memory node cache fronts every
  // buffer either constituent walks.
  [[nodiscard]] std::vector<std::int32_t> node_buffers() const {
    std::vector<std::int32_t> bufs = a_->node_buffers();
    for (std::int32_t id : b_->node_buffers()) {
      bool seen = false;
      for (std::int32_t have : bufs) seen = seen || have == id;
      if (!seen) bufs.push_back(id);
    }
    return bufs;
  }

  template <class Mem>
  [[nodiscard]] State init(std::uint32_t pid, Mem& mem, int lane) const {
    State st;
    st.a = a_->init(pid, mem, lane);
    st.b = b_->init(pid, mem, lane);
    return st;
  }

  // Merged truncation: descend while either constituent wants to. A
  // constituent whose payload runs and truncates opens its skip interval
  // (n, rope[n]); a constituent already inside its interval contributes
  // nothing (and issues no loads), exactly like its solo run.
  template <class Mem>
  bool visit(NodeId n, const UArg& ua, const LArg&, State& st, Mem& mem,
             int lane) const {
    bool da = false, db = false;
    if (!(st.lo_a < n && n < st.hi_a)) {
      da = a_->visit(n, ua.a, typename A::LArg{}, st.a, mem, lane);
      if (!da) {
        st.lo_a = n;
        st.hi_a = skip_extent(n);
      }
    }
    if (!(st.lo_b < n && n < st.hi_b)) {
      db = b_->visit(n, ua.b, typename B::LArg{}, st.b, mem, lane);
      if (!db) {
        st.lo_b = n;
        st.hi_b = skip_extent(n);
      }
    }
    return da || db;
  }

  [[nodiscard]] int choose_callset(NodeId, const State&) const { return 0; }

  // Child enumeration. A constituent "participates" at n unless it
  // truncated at n itself (lo == n) or n lies inside its skip interval;
  // a non-participating side's child uargs are recomputed via uarg_at
  // (bitwise identical to what its children() would have produced -- the
  // RopeCompatibleKernel contract) so no loads are charged for it. The
  // unguided constituents' child lists are topology-only, hence
  // node-uniform across lanes, which is what lets the lockstep schedule
  // run children() on the leader lane alone.
  template <class Mem>
  int children(NodeId n, const UArg& ua, int, const State& st,
               Child<UArg, LArg>* out, Mem& mem, int lane) const {
    const bool pa = !(st.lo_a <= n && n < st.hi_a);
    const bool pb = !(st.lo_b <= n && n < st.hi_b);
    std::array<Child<typename A::UArg, typename A::LArg>, kFanout> ca;
    std::array<Child<typename B::UArg, typename B::LArg>, kFanout> cb;
    int na = 0, nb = 0;
    if (pa) na = a_->children(n, ua.a, 0, st.a, ca.data(), mem, lane);
    if (pb) nb = b_->children(n, ua.b, 0, st.b, cb.data(), mem, lane);
    if (pa && pb) {
      if (na != nb)
        throw std::logic_error(
            std::string("FusedKernel: constituents enumerate different "
                        "child counts at node ") +
            std::to_string(n) + " (" + std::to_string(na) + " vs " +
            std::to_string(nb) + "); the trees have diverged");
      for (int i = 0; i < na; ++i) {
        if (ca[i].node != cb[i].node)
          throw std::logic_error(
              std::string("FusedKernel: constituents enumerate different "
                          "children at node ") +
              std::to_string(n) + "; the trees have diverged");
        out[i].node = ca[i].node;
        out[i].uarg = UArg{ca[i].uarg, cb[i].uarg};
        out[i].larg = {};
      }
      return na;
    }
    if (pa) {
      for (int i = 0; i < na; ++i) {
        out[i].node = ca[i].node;
        out[i].uarg = UArg{ca[i].uarg, b_->uarg_at(ca[i].node)};
        out[i].larg = {};
      }
      return na;
    }
    if (pb) {
      for (int i = 0; i < nb; ++i) {
        out[i].node = cb[i].node;
        out[i].uarg = UArg{a_->uarg_at(cb[i].node), cb[i].uarg};
        out[i].larg = {};
      }
      return nb;
    }
    // Lockstep leader lane with both sides truncated while some other
    // lane still descends: reproduce the (node-uniform, topology-only)
    // child list without charging any loads.
    NoopMem noop;
    na = a_->children(n, ua.a, 0, st.a, ca.data(), noop, lane);
    for (int i = 0; i < na; ++i) {
      out[i].node = ca[i].node;
      out[i].uarg = uarg_at(ca[i].node);
      out[i].larg = {};
    }
    return na;
  }

  // memset-then-assign: the padding between the two constituent results
  // (if any) is pinned to zero so fused Result arrays can be memcmp'd.
  [[nodiscard]] Result finish(const State& st) const {
    Result r;
    std::memset(static_cast<void*>(&r), 0, sizeof r);
    r.a = a_->finish(st.a);
    r.b = b_->finish(st.b);
    return r;
  }

  [[nodiscard]] const A& first() const { return *a_; }
  [[nodiscard]] const B& second() const { return *b_; }

 private:
  [[nodiscard]] NodeId skip_extent(NodeId n) const {
    const NodeId r = a_->ropes().rope[static_cast<std::size_t>(n)];
    return r == StaticRopes::kEndOfTraversal
               ? std::numeric_limits<NodeId>::max()
               : r;
  }

  const A* a_;
  const B* b_;
};

// Deduction-friendly constructor wrapper: fuse(a, b) is the composition
// API's entry point.
template <class A, class B>
[[nodiscard]] FusedKernel<A, B> fuse(const A& a, const B& b) {
  return FusedKernel<A, B>(a, b);
}

}  // namespace tt
