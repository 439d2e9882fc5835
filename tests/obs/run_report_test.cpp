// RunReport tests: byte-identical repeated emission, parse-back equality
// against the BenchRow it was built from (every KernelStats counter, once),
// schema tagging, the bench binaries' sampler knobs, and the
// volatile-field gating that the determinism guarantee rests on.
#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "obs/json.h"

namespace tt::obs {
namespace {

BenchRow sample_row() {
  BenchRow row;
  row.config.algo = Algo::kPC;
  row.config.input = InputKind::kUniform;
  row.config.n = 512;
  row.config.sorted = true;
  VariantResult& al = row.result(Variant::kAutoLockstep);
  al.avg_nodes = 42.0;
  al.stats.lane_visits = 1000;
  al.stats.warp_pops = 50;
  al.stats.votes = 60;
  al.stats.instr_cycles = 123.5;
  al.time.compute_ms = 1.25;
  al.time.memory_ms = 0.75;
  al.time.total_ms = 1.25;
  al.sim_wall_ms = 9.0;  // volatile: excluded by default
  VariantResult& rl = row.result(Variant::kRecLockstep);
  rl.error = "rope stack overflow (warp 3)";
  row.cpu_t1_ms = 77.0;  // volatile
  row.cpu_visits = 1000;
  row.upload_bytes = 4096;
  row.download_bytes = 2048;
  row.work_expansion = Summary{16, 1.5, 0.25, 1.0, 2.0};
  return row;
}

RunReport sample_report(bool include_volatile = false) {
  RunReport rep("unit_test");
  rep.set_seed(42);
  rep.set_device(DeviceConfig{});
  rep.set_include_volatile(include_volatile);
  rep.add_row(sample_row());
  Table t({"A", "B"});
  t.add_row({"x", "1"});
  rep.add_table("demo", t);
  Table wall({"Bench", "vs1T"});
  wall.add_row({"pc", "284.53"});  // derived from a measured wall time
  rep.add_table("speedups", wall, /*volatile_data=*/true);
  return rep;
}

TEST(RunReport, RepeatedEmissionIsByteIdentical) {
  RunReport rep = sample_report();
  EXPECT_EQ(rep.to_string(), rep.to_string());
  RunReport again = sample_report();
  EXPECT_EQ(rep.to_string(), again.to_string());
}

TEST(RunReport, ParseBackMatchesSource) {
  RunReport rep = sample_report();
  auto root = json_parse(rep.to_string());

  ASSERT_TRUE(root->is_object());
  EXPECT_EQ(root->find("schema")->as_string(), kRunReportSchema);
  EXPECT_EQ(root->find("generator")->as_string(), "unit_test");
  EXPECT_EQ(root->find("seed")->as_uint(), 42u);
  ASSERT_NE(root->find("git_sha"), nullptr);

  const JsonValue* device = root->find("device");
  ASSERT_TRUE(device && device->is_object());
  EXPECT_EQ(device->find("warp_size")->as_uint(), 32u);
  EXPECT_DOUBLE_EQ(device->find("mem_bandwidth_gbps")->as_number(), 144.0);

  const JsonValue* rows = root->find("rows");
  ASSERT_TRUE(rows && rows->is_array());
  ASSERT_EQ(rows->arr_v.size(), 1u);
  const JsonValue& row = *rows->arr_v[0];
  EXPECT_EQ(row.find("config")->find("algo")->as_string(), "PointCorrelation");
  EXPECT_EQ(row.find("config")->find("n")->as_uint(), 512u);

  const JsonValue* al = row.find("variants")->find("auto_lockstep");
  ASSERT_NE(al, nullptr);
  EXPECT_TRUE(al->find("ok")->as_bool());
  // One surface per number: the modelled time is time.total_ms only.
  EXPECT_EQ(al->find("time_ms"), nullptr);
  EXPECT_DOUBLE_EQ(al->find("time")->find("total_ms")->as_number(), 1.25);
  EXPECT_EQ(al->find("stats")->find("lane_visits")->as_uint(), 1000u);
  EXPECT_EQ(al->find("stats")->find("warp_pops")->as_uint(), 50u);
  EXPECT_DOUBLE_EQ(al->find("time")->find("memory_ms")->as_number(), 0.75);
  // Volatile fields excluded by default.
  EXPECT_EQ(al->find("sim_wall_ms"), nullptr);
  EXPECT_EQ(row.find("cpu")->find("t1_ms"), nullptr);

  const JsonValue* rl = row.find("variants")->find("rec_lockstep");
  ASSERT_NE(rl, nullptr);
  EXPECT_FALSE(rl->find("ok")->as_bool());
  EXPECT_EQ(rl->find("error")->as_string(), "rope stack overflow (warp 3)");

  // Each number appears once: the stats/time blocks are the only surface.
  EXPECT_EQ(row.find("metrics"), nullptr);

  const JsonValue* tables = root->find("tables");
  ASSERT_TRUE(tables && tables->is_array());
  ASSERT_EQ(tables->arr_v.size(), 1u) << "volatile table must be gated out";
  EXPECT_EQ(tables->arr_v[0]->find("name")->as_string(), "demo");
  EXPECT_EQ(tables->arr_v[0]->find("rows")->arr_v[0]->arr_v[1]->as_string(),
            "1");
}

TEST(RunReport, VolatileFlagIncludesWallClockFields) {
  auto root = json_parse(sample_report(/*include_volatile=*/true).to_string());
  const JsonValue& row = *root->find("rows")->arr_v[0];
  const JsonValue* al = row.find("variants")->find("auto_lockstep");
  ASSERT_NE(al->find("sim_wall_ms"), nullptr);
  EXPECT_DOUBLE_EQ(al->find("sim_wall_ms")->as_number(), 9.0);
  EXPECT_DOUBLE_EQ(row.find("cpu")->find("t1_ms")->as_number(), 77.0);
  const JsonValue* tables = root->find("tables");
  ASSERT_EQ(tables->arr_v.size(), 2u);
  EXPECT_EQ(tables->arr_v[1]->find("name")->as_string(), "speedups");
}

TEST(RunReport, StatsBlockCarriesEveryKernelStatsCounter) {
  // A distinct value per scalar counter, so a swapped or dropped member
  // cannot pass.
  KernelStats s;
  s.load_instructions = 1;
  s.dram_transactions = 2;
  s.l2_hit_transactions = 3;
  s.dram_bytes = 4;
  s.instr_cycles = 5.5;
  s.warp_steps = 6;
  s.lane_visits = 7;
  s.warp_pops = 8;
  s.calls = 9;
  s.votes = 10;
  s.active_lane_sum = 11;
  s.peak_stack_entries = 12;
  s.smem_cache_hits = 13;
  s.smem_cache_misses = 14;
  s.shared_loads_elided = 15;
  BenchRow row = sample_row();
  row.result(Variant::kAutoLockstep).stats = s;
  RunReport rep("unit_test");
  rep.add_row(row);

  auto root = json_parse(rep.to_string());
  const JsonValue* stats = root->find("rows")->arr_v[0]->find("variants")
                               ->find("auto_lockstep")->find("stats");
  ASSERT_TRUE(stats && stats->is_object());
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"load_instructions", 1},   {"dram_transactions", 2},
      {"l2_hit_transactions", 3}, {"dram_bytes", 4},
      {"warp_steps", 6},          {"lane_visits", 7},
      {"warp_pops", 8},           {"calls", 9},
      {"votes", 10},              {"active_lane_sum", 11},
      {"peak_stack_entries", 12}, {"smem_cache_hits", 13},
      {"smem_cache_misses", 14},  {"shared_loads_elided", 15}};
  for (const auto& [name, value] : counters) {
    const JsonValue* v = stats->find(name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_EQ(v->as_uint(), value) << name;
  }
  ASSERT_NE(stats->find("instr_cycles"), nullptr);
  EXPECT_DOUBLE_EQ(stats->find("instr_cycles")->as_number(), 5.5);
  EXPECT_EQ(stats->obj_v.size(), 15u) << "one member per scalar counter";
}

TEST(RunReport, BenchReportRecordsSamplerKnobsNextToSeed) {
  Cli cli("unit_test");
  benchx::add_common_flags(cli);
  const char* argv[] = {"unit_test", "--profile-seed=7",
                        "--profile-samples=8"};
  ASSERT_TRUE(cli.parse(3, argv));
  auto root = json_parse(benchx::make_report(cli, "unit_test").to_string());
  EXPECT_EQ(root->find("seed")->as_uint(), 42u);
  EXPECT_EQ(root->find("profile_samples")->as_uint(), 8u);
  EXPECT_EQ(root->find("profile_seed")->as_uint(), 7u);
  std::vector<std::string> keys;
  for (const auto& [k, v] : root->obj_v) keys.push_back(k);
  const auto seed = std::find(keys.begin(), keys.end(), "seed");
  ASSERT_LE(seed + 3, keys.end());
  EXPECT_EQ(seed[1], "profile_samples");
  EXPECT_EQ(seed[2], "profile_seed");
}

TEST(RunReport, WriteFileRoundTrips) {
  RunReport rep = sample_report();
  std::string path = ::testing::TempDir() + "run_report_test.json";
  std::string err;
  ASSERT_TRUE(rep.write_file(path, &err)) << err;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), rep.to_string());
  EXPECT_FALSE(rep.write_file("/nonexistent-dir/x/y.json", &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace tt::obs
