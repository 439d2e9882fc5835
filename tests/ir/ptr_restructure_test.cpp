// The section-3.2 restructuring: non-pseudo-tail-recursive traversals are
// rewritten so intervening work between recursive calls executes at the
// beginning of the latter call, after which the standard autoropes rewrite
// applies. Equivalence (same visits, same final point state) is checked
// against true recursion semantics on randomized trees.
#include "core/ir/ptr_restructure.h"

#include <gtest/gtest.h>

#include "core/ir/autoropes_rewriter.h"
#include "core/ir/callset_analysis.h"
#include "core/ir/interpreter.h"
#include "util/rng.h"

namespace tt {
namespace {

// recurse(left); update(1); recurse(right)   -- classic in-order traversal,
// not pseudo-tail-recursive.
ir::TraversalFunc inorder_ir() {
  ir::TraversalFunc f;
  f.name = "inorder";
  f.blocks.resize(2);
  f.blocks[0].term = ir::Block::Term::kBranch;  // if (leaf-ish) return
  f.blocks[0].cond = 0;
  f.blocks[0].succ_true = 1;
  f.blocks[0].succ_false = 1;  // both paths to the body for simplicity
  ir::Stmt pre;
  pre.kind = ir::Stmt::Kind::kUpdate;
  pre.id = 0;
  auto call = [](int id, int slot) {
    ir::Stmt s;
    s.kind = ir::Stmt::Kind::kCall;
    s.id = id;
    s.child_slot = slot;
    return s;
  };
  ir::Stmt mid;
  mid.kind = ir::Stmt::Kind::kUpdate;
  mid.id = 1;
  f.blocks[1].stmts = {pre, call(0, 0), mid, call(1, 1)};
  f.blocks[1].term = ir::Block::Term::kReturn;
  return f;
}

ir::TraversalFunc postorder_ir() {
  // recurse(left); recurse(right); update(2) -- trailing work, NOT
  // restructurable with the deferral scheme.
  ir::TraversalFunc f;
  f.name = "postorder";
  f.blocks.resize(1);
  auto call = [](int id, int slot) {
    ir::Stmt s;
    s.kind = ir::Stmt::Kind::kCall;
    s.id = id;
    s.child_slot = slot;
    return s;
  };
  ir::Stmt post;
  post.kind = ir::Stmt::Kind::kUpdate;
  post.id = 2;
  f.blocks[0].stmts = {call(0, 0), call(1, 1), post};
  f.blocks[0].term = ir::Block::Term::kReturn;
  return f;
}

LinearTree random_binary_tree(std::size_t n_nodes, std::uint64_t seed) {
  Pcg32 rng(seed, 31);
  LinearTree t;
  t.fanout = 2;
  auto build = [&](auto&& self, NodeId parent, int depth,
                   std::size_t budget) -> NodeId {
    NodeId id = t.add_node(parent, depth);
    if (budget <= 1) return id;
    std::size_t rest = budget - 1;
    std::size_t left = rng.next_below(static_cast<std::uint32_t>(rest + 1));
    if (left > 0) t.set_child(id, 0, self(self, id, depth + 1, left));
    if (rest - left > 0)
      t.set_child(id, 1, self(self, id, depth + 1, rest - left));
    return id;
  };
  build(build, kNullNode, 0, n_nodes);
  t.validate();
  return t;
}

ir::World make_world(const LinearTree& tree) {
  ir::World w;
  w.tree = &tree;
  // The point state is mixed in std::uint64_t: it outgrows std::int64_t
  // after about a dozen updates, and unsigned arithmetic wraps by
  // definition where signed overflow is undefined behaviour.
  w.cond = [](int id, NodeId n, std::int64_t& ps, std::int64_t arg) {
    const std::uint64_t mix = static_cast<std::uint64_t>(ps) * 31 +
                              static_cast<std::uint64_t>(id * 7 + n * 13 + arg);
    return (mix & 7) < 3;
  };
  w.update = [](int id, NodeId n, std::int64_t& ps, std::int64_t arg) {
    // Non-commutative so ordering mistakes are caught.
    ps = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(ps) * 37 +
        static_cast<std::uint64_t>(id * 11 + n * 5 + arg * 3 + 1));
  };
  w.child = [&tree](int slot, NodeId n, const std::int64_t&) {
    return tree.child(n, slot);
  };
  w.arg_fn = [](int expr, std::int64_t arg, NodeId n) {
    return arg + expr + n % 3;
  };
  return w;
}

TEST(PtrRestructure, DetectsShapes) {
  EXPECT_TRUE(ir::can_restructure_to_ptr(inorder_ir()));
  EXPECT_FALSE(ir::can_restructure_to_ptr(postorder_ir()));
  EXPECT_THROW(ir::restructure_to_ptr(postorder_ir()), std::invalid_argument);
}

TEST(PtrRestructure, ProducesPseudoTailRecursion) {
  ir::TraversalFunc in = inorder_ir();
  EXPECT_FALSE(ir::is_pseudo_tail_recursive(in));
  ir::TraversalFunc out = ir::restructure_to_ptr(in);
  EXPECT_TRUE(ir::is_pseudo_tail_recursive(out));
  // The intervening update moved into the second call.
  const ir::Block& b = out.blocks[1];
  ASSERT_EQ(b.stmts.size(), 3u);  // pre-update, call, call
  EXPECT_EQ(b.stmts[0].kind, ir::Stmt::Kind::kUpdate);
  EXPECT_EQ(b.stmts[1].kind, ir::Stmt::Kind::kCall);
  EXPECT_TRUE(b.stmts[1].deferred_updates.empty());
  EXPECT_EQ(b.stmts[2].deferred_updates, std::vector<int>{1});
}

TEST(PtrRestructure, CallSetsUnchanged) {
  auto before = ir::enumerate_call_sets(inorder_ir());
  auto after = ir::enumerate_call_sets(ir::restructure_to_ptr(inorder_ir()));
  EXPECT_EQ(before, after);
}

class PtrEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PtrEquivalence, RestructureThenAutoropesMatchesOriginalRecursion) {
  LinearTree tree = random_binary_tree(70, GetParam());
  ir::World w = make_world(tree);
  ir::TraversalFunc original = inorder_ir();
  ir::TraversalFunc ptr = ir::restructure_to_ptr(original);
  ir::TraversalFunc iterative = ir::autoropes_rewrite(ptr);

  std::int64_t ps_orig = 5, ps_ptr = 5, ps_iter = 5;
  auto t_orig = ir::interpret_recursive(original, w, 0, 1, ps_orig);
  auto t_ptr = ir::interpret_recursive(ptr, w, 0, 1, ps_ptr);
  auto t_iter = ir::interpret_autoropes(iterative, w, 0, 1, ps_iter);

  EXPECT_EQ(t_orig, t_ptr);
  EXPECT_EQ(t_orig, t_iter);
  EXPECT_EQ(ps_orig, ps_ptr);      // identical update sequences...
  EXPECT_EQ(ps_orig, ps_iter);     // ...through the whole pipeline
}

INSTANTIATE_TEST_SUITE_P(Seeds, PtrEquivalence,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(PtrRestructure, MultipleInterveningUpdates) {
  // call; u1; u2; call -- both updates ride the second call, in order.
  ir::TraversalFunc f;
  f.blocks.resize(1);
  auto call = [](int id, int slot) {
    ir::Stmt s;
    s.kind = ir::Stmt::Kind::kCall;
    s.id = id;
    s.child_slot = slot;
    return s;
  };
  ir::Stmt u1, u2;
  u1.kind = u2.kind = ir::Stmt::Kind::kUpdate;
  u1.id = 1;
  u2.id = 2;
  f.blocks[0].stmts = {call(0, 0), u1, u2, call(1, 1)};
  f.blocks[0].term = ir::Block::Term::kReturn;
  ir::TraversalFunc out = ir::restructure_to_ptr(f);
  ASSERT_EQ(out.blocks[0].stmts.size(), 2u);
  EXPECT_EQ(out.blocks[0].stmts[1].deferred_updates,
            (std::vector<int>{1, 2}));

  LinearTree tree = random_binary_tree(40, 99);
  ir::World w = make_world(tree);
  std::int64_t a = 7, b = 7;
  auto ta = ir::interpret_recursive(f, w, 0, 0, a);
  auto tb = ir::interpret_autoropes(ir::autoropes_rewrite(out), w, 0, 0, b);
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a, b);
}

TEST(PtrRestructure, SkippedCallStillRunsDeferredWork) {
  // Tree where the right child is absent: update 1 (deferred into the
  // right call) must still execute, with the parent's node.
  LinearTree t;
  t.fanout = 2;
  NodeId root = t.add_node(kNullNode, 0);
  NodeId left = t.add_node(root, 1);
  t.set_child(root, 0, left);

  ir::World w = make_world(t);
  ir::TraversalFunc original = inorder_ir();
  ir::TraversalFunc pipeline =
      ir::autoropes_rewrite(ir::restructure_to_ptr(original));
  std::int64_t a = 3, b = 3;
  ir::interpret_recursive(original, w, 0, 0, a);
  ir::interpret_autoropes(pipeline, w, 0, 0, b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tt
