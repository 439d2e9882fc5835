// Full-grid integration sweep: every benchmark x input x order cell runs
// through the harness with verification on (all six executors must agree),
// and the row's derived metrics must be internally consistent. This is the
// paper's whole evaluation grid as one parameterized test suite.
#include <gtest/gtest.h>

#include <tuple>

#include "bench_algos/harness.h"

namespace tt {
namespace {

using Cell = std::tuple<Algo, InputKind, bool>;

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (Algo a : {Algo::kBH, Algo::kPC, Algo::kKNN, Algo::kNN, Algo::kVP})
    for (InputKind in : inputs_for(a))
      for (bool sorted : {true, false}) cells.emplace_back(a, in, sorted);
  return cells;
}

class GridCell : public ::testing::TestWithParam<Cell> {};

TEST_P(GridCell, VerifiedAndConsistent) {
  auto [algo, input, sorted] = GetParam();
  BenchConfig cfg;
  cfg.algo = algo;
  cfg.input = input;
  cfg.sorted = sorted;
  cfg.n = 384;
  cfg.verify = true;  // throws on any cross-variant result mismatch
  cfg.pc_target_neighbors = 10;
  cfg.k = 4;

  BenchRow row = run_bench(cfg);

  // Work accounting invariants.
  EXPECT_GT(row.cpu_visits, 0u);
  EXPECT_EQ(row.result(Variant::kAutoNolockstep).stats.lane_visits,
            row.cpu_visits)
      << "per-lane GPU visits must equal the CPU recursion's";
  EXPECT_GE(row.result(Variant::kAutoLockstep).stats.lane_visits,
            row.result(Variant::kAutoNolockstep).stats.lane_visits)
      << "lockstep lanes ride along in the union traversal";
  EXPECT_GE(row.work_expansion.mean, 1.0);
  // Every variant either succeeded with positive, finite time or recorded
  // a graceful eligibility skip (stackless variants on guided kernels /
  // index_walk on non-binary trees). Legacy variants never skip.
  for (Variant v : kAllVariants) {
    const VariantResult& r = row.result(v);
    if (!r.ok() && variant_is_stackless(v)) {
      EXPECT_EQ(r.error.rfind("skipped:", 0), 0u)
          << variant_name(v) << ": " << r.error;
      continue;
    }
    EXPECT_TRUE(r.ok()) << variant_name(v) << ": " << r.error;
    EXPECT_GT(r.time.total_ms, 0.0) << variant_name(v);
    EXPECT_LT(r.time.total_ms, 1e6) << variant_name(v);
  }
  // Recursive variants pay calls; autoropes never do.
  EXPECT_EQ(row.result(Variant::kAutoLockstep).stats.calls, 0u);
  EXPECT_GT(row.result(Variant::kRecNolockstep).stats.calls, 0u);
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  auto [algo, input, sorted] = info.param;
  std::string s = algo_name(algo) + "_" + input_name(input) +
                  (sorted ? "_sorted" : "_unsorted");
  std::string out;
  for (char c : s)
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9'))
      out += c;
    else
      out += '_';
  return out;
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, GridCell, ::testing::ValuesIn(all_cells()),
                         cell_name);

}  // namespace
}  // namespace tt
