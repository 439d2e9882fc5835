// Validates a treetrav.run_report JSON file (obs/run_report.h) and
// re-derives the invariants each block must satisfy. Only the current
// schema tag is accepted, so a reader of an older layout fails on the tag
// instead of on a missing block. Every report carries the provenance
// members -- generator, git_sha and the auto_select sampler knobs
// profile_samples and profile_seed -- and the "rows" and "tables" arrays;
// the optional blocks are checked when present:
//   rows[].variants -- written by table1 and every grid binary: one object
//     per variant with ok, stats and time. An ok auto_select carries its
//     "selection" block, whose chosen autoropes composition is the one
//     with the lower predicted time (ties: lockstep); an ok stackless
//     variant shows zero stack footprint.
//   time (every variant row, and fusion's fused/sequential times) --
//     memory_bound == (memory_ms > compute_ms), and total_ms == select_ms
//     + max(compute_ms, memory_ms): the auto_select sampler is a serial
//     prologue. A sum over several launches (BH's timesteps, fusion's
//     sequential pair) only bounds its total from below. select_ms is
//     nonzero only on an ok auto_select row, where (one launch) it equals
//     selection.sampling_cycles / (device.clock_ghz * 1e6).
//   profile (--profile, on a variant) -- the cycle buckets sum to
//     instr_cycles exactly and the depth histogram accounts for every warp
//     step and active lane.
//   memory (--profile, on a variant) -- per-buffer rows and their
//     per-field rows sum exactly to the variant's KernelStats counters and
//     to the profile's mem_stall bucket (every value is a multiple of
//     2^-7, see simt/memory_attr.h).
//   serving (bench/serving) -- completed + dropped == submitted, per-drain
//     query counts sum to completed, percentiles are monotone, queue
//     gauges are non-negative and no drain pays more than its solo
//     transfer. Both percentile summaries count every completed query,
//     each mean lies in [0, max], no queue delay exceeds the largest
//     latency, and that latency is at least every drain's service_ms (a
//     query's latency is its queue delay + its wave's service time). The
//     totals reconcile exactly with the drains summed in
//     dispatch order: transfer.amortized_ms and summed_solo_ms with their
//     transfer_ms and solo_transfer_ms, occupancy with their service_ms /
//     (span_ms x devices); each drain's service_ms is transfer_ms +
//     compute_ms and its cold_launches never exceed its queries.
//   devices (bench/sharding) -- per-device chunks and points sum to each
//     kernel's totals, overlap never exceeds copy-in, and the makespan is
//     the slowest device's busy time, bounded by the summed busy time.
//   fusion (bench/fusion) -- every ok row is byte_identical and the fused
//     walk's visits never exceed the constituents' sum.
// Each number lives in exactly one of these blocks, so each invariant is
// checked against the one value every reader sees.
// Exit 0 on success; nonzero with a diagnostic on stderr otherwise. Used
// by the *_json_validate ctests and scripts/check.sh.
//
// --golden <golden.json> <report.json> parses both files, gives the report
// the golden's git_sha, re-serializes it through the canonical JsonWriter
// and compares the result with the golden file byte for byte, printing
// the first differing line on a mismatch.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "core/variant.h"
#include "obs/json.h"
#include "obs/run_report.h"
#include "simt/kernel_stats.h"

using tt::obs::JsonValue;
using tt::obs::JsonValuePtr;
using tt::obs::JsonWriter;

namespace {

int fail(const std::string& msg) {
  std::cerr << "json_validate: " << msg << "\n";
  return 1;
}

bool slurp(const char* path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// ---------------------------------------------------------------------
// Canonical re-serialization of a parsed tree (insertion order preserved,
// numbers through json_number's shortest round-trip form) -- the form the
// JsonWriter gives every report and fixture, so a re-serialized report
// reproduces a fixture byte for byte exactly when every member and every
// digit agrees. Comparing parsed values instead would miss a fixture digit
// edited below double precision.
// ---------------------------------------------------------------------
void write_value(JsonWriter& w, const JsonValue& v);

void write_member(JsonWriter& w, const std::string& k, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull: w.member_null(k); break;
    case JsonValue::Type::kBool: w.member(k, v.bool_v); break;
    case JsonValue::Type::kNumber: w.member(k, v.num_v); break;
    case JsonValue::Type::kString: w.member(k, v.str_v); break;
    case JsonValue::Type::kArray:
      w.member_array(k);
      for (const JsonValuePtr& e : v.arr_v) write_value(w, *e);
      w.end_array();
      break;
    case JsonValue::Type::kObject:
      w.member_object(k);
      for (const auto& [mk, mv] : v.obj_v) write_member(w, mk, *mv);
      w.end_object();
      break;
  }
}

void write_value(JsonWriter& w, const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull: w.value_null(); break;
    case JsonValue::Type::kBool: w.value(v.bool_v); break;
    case JsonValue::Type::kNumber: w.value(v.num_v); break;
    case JsonValue::Type::kString: w.value(v.str_v); break;
    case JsonValue::Type::kArray:
      w.begin_array();
      for (const JsonValuePtr& e : v.arr_v) write_value(w, *e);
      w.end_array();
      break;
    case JsonValue::Type::kObject:
      w.begin_object();
      for (const auto& [mk, mv] : v.obj_v) write_member(w, mk, *mv);
      w.end_object();
      break;
  }
}

// `text` re-serialized canonically with its git_sha -- the only member
// two builds of the same code at different commits differ in -- set to
// `sha`.
std::string canonical_report(const std::string& text, const std::string& sha) {
  auto root = tt::obs::json_parse(text);
  if (root->is_object())
    for (auto& [k, v] : root->obj_v)
      if (k == "git_sha") {
        v->type = JsonValue::Type::kString;
        v->str_v = sha;
      }
  std::ostringstream os;
  {
    JsonWriter w(os);
    write_value(w, *root);
  }
  return os.str();
}

// Compare the golden file byte for byte with the report re-serialized under
// the golden's git_sha; on mismatch print the first differing line of each
// side for a usable diagnostic.
int compare_golden(const char* golden_path, const char* report_path) {
  std::string golden_text, report_text;
  if (!slurp(golden_path, &golden_text))
    return fail(std::string("cannot open ") + golden_path);
  if (!slurp(report_path, &report_text))
    return fail(std::string("cannot open ") + report_path);

  std::string report;
  try {
    const JsonValuePtr golden = tt::obs::json_parse(golden_text);
    const JsonValue* sha = golden->find("git_sha");
    if (!sha) return fail(std::string(golden_path) + ": missing \"git_sha\"");
    report = canonical_report(report_text, sha->as_string());
  } catch (const std::exception& e) {
    return fail(std::string("golden compare parse error: ") + e.what());
  }

  if (golden_text == report) {
    std::cout << "json_validate: " << report_path << " matches golden "
              << golden_path << "\n";
    return 0;
  }
  std::istringstream ga(golden_text), rb(report);
  std::string gl, rl;
  std::size_t line = 0;
  for (;;) {
    ++line;
    bool have_g = static_cast<bool>(std::getline(ga, gl));
    bool have_r = static_cast<bool>(std::getline(rb, rl));
    if (!have_g && !have_r) break;
    if (!have_g) gl = "<end of file>";
    if (!have_r) rl = "<end of file>";
    if (gl != rl) {
      std::cerr << "json_validate: golden mismatch at line " << line
                << "\n"
                << "  golden: " << gl << "\n"
                << "  report: " << rl << "\n";
      return 1;
    }
  }
  return fail("golden mismatch (content differs)");
}

// The auto_select variant of an ok row must carry the full selection
// block: both autoropes compositions' predicted times, finite and >= 0,
// and the chosen composition the cheaper of the two -- ties dispatch
// lockstep (core/launch.h CompositionPrices). The retired sortedness
// rule's "threshold" member is rejected.
int check_selection(const std::string& at, const JsonValue& vr) {
  const JsonValue* sel = vr.find("selection");
  if (!sel || !sel->is_object())
    return fail(at + ": ok auto_select without \"selection\" block");
  for (const char* field :
       {"mean_similarity", "baseline_similarity", "samples",
        "predicted_lockstep_ms", "predicted_nolockstep_ms", "chosen",
        "sampling_cycles"})
    if (!sel->find(field))
      return fail(at + ".selection: missing \"" + field + "\"");
  if (sel->find("threshold"))
    return fail(at + ".selection: \"threshold\" is not a v13 member (the "
                "selector prices both compositions instead)");
  const std::string& chosen = sel->find("chosen")->as_string();
  if (chosen != tt::variant_name(tt::Variant::kAutoLockstep) &&
      chosen != tt::variant_name(tt::Variant::kAutoNolockstep))
    return fail(at + ".selection: chosen is \"" + chosen +
                "\", expected an autoropes composition");
  const double lock = sel->find("predicted_lockstep_ms")->as_number();
  const double nolock = sel->find("predicted_nolockstep_ms")->as_number();
  for (double ms : {lock, nolock})
    if (!std::isfinite(ms) || ms < 0)
      return fail(at + ".selection: predicted time " +
                  tt::obs::json_number(ms) + " is not a finite ms >= 0");
  const char* cheaper = tt::variant_name(lock <= nolock
                                             ? tt::Variant::kAutoLockstep
                                             : tt::Variant::kAutoNolockstep);
  if (chosen != cheaper)
    return fail(at + ".selection: chosen is \"" + chosen +
                "\" but the cheaper composition is \"" + cheaper +
                "\" (predicted_lockstep_ms " + tt::obs::json_number(lock) +
                " vs predicted_nolockstep_ms " + tt::obs::json_number(nolock) +
                "; ties dispatch lockstep)");
  return 0;
}

// A "time" block (simt/cost_model.h TimeBreakdown). One launch's total is
// its select prologue plus the slower of compute and memory, exactly --
// the report carries the doubles the cost model computed. A block summed
// over several launches adds each launch's max, which is at least the max
// of the sums; its >= allows the last-bit rounding of adding the same
// terms in another order. select_ms may be nonzero only where
// `may_select` (an ok auto_select launch).
int check_time(const std::string& at, const JsonValue& t, bool summed,
               bool may_select) {
  if (!t.is_object()) return fail(at + ": not an object");
  for (const char* field :
       {"compute_ms", "memory_ms", "select_ms", "total_ms", "memory_bound"})
    if (!t.find(field)) return fail(at + ": missing \"" + field + "\"");
  const double compute = t.find("compute_ms")->as_number();
  const double memory = t.find("memory_ms")->as_number();
  const double select = t.find("select_ms")->as_number();
  const double total = t.find("total_ms")->as_number();
  if (t.find("memory_bound")->as_bool() != (memory > compute))
    return fail(at + ": memory_bound disagrees with memory_ms > compute_ms");
  if (select != 0 && !may_select)
    return fail(at + ": select_ms " + tt::obs::json_number(select) +
                " outside an ok auto_select launch");
  const double want = select + std::max(compute, memory);
  if (summed ? total < want * (1 - 1e-12) : total != want)
    return fail(at + ": total_ms " + tt::obs::json_number(total) +
                (summed ? " is below" : " is not") +
                " select_ms + max(compute_ms, memory_ms) = " +
                tt::obs::json_number(want));
  return 0;
}

// The optional "profile" block of a variant object `holder`: shape plus the attribution invariant, checked with EXACT
// equality -- every cycle charge is an integer-valued double, so the
// bucket split must reconstruct instr_cycles with ==, and the divergence
// histogram must account for every warp step and active lane. When the
// holder also carries a "stats" block, the profile must agree with it.
int check_profile(const std::string& at, const JsonValue& holder) {
  const JsonValue* p = holder.find("profile");
  if (!p) return 0;  // --profile is opt-in
  if (!p->is_object()) return fail(at + ".profile: not an object");
  for (const char* field : {"instr_cycles", "memory_cycles", "warp_steps",
                            "active_lane_sum", "buckets", "depth_histogram",
                            "hot_nodes"})
    if (!p->find(field))
      return fail(at + ".profile: missing \"" + field + "\"");

  const JsonValue* buckets = p->find("buckets");
  if (!buckets->is_object())
    return fail(at + ".profile.buckets: not an object");
  if (buckets->obj_v.size() != tt::kNumCycleBuckets)
    return fail(at + ".profile.buckets: expected " +
                std::to_string(tt::kNumCycleBuckets) + " buckets, got " +
                std::to_string(buckets->obj_v.size()));
  double bucket_sum = 0;
  for (std::size_t b = 0; b < tt::kNumCycleBuckets; ++b) {
    const char* name = tt::cycle_bucket_name(static_cast<tt::CycleBucket>(b));
    const JsonValue* v = buckets->find(name);
    if (!v)
      return fail(at + ".profile.buckets: missing \"" + name + "\"");
    if (v->as_number() < 0)
      return fail(at + ".profile.buckets." + name + ": negative");
    bucket_sum += v->as_number();
  }
  const double instr = p->find("instr_cycles")->as_number();
  if (bucket_sum != instr)
    return fail(at + ".profile: attribution broken -- buckets sum to " +
                std::to_string(bucket_sum) + " but instr_cycles is " +
                std::to_string(instr));

  const JsonValue* hist = p->find("depth_histogram");
  if (!hist->is_array())
    return fail(at + ".profile.depth_histogram: not an array");
  std::uint64_t steps = 0, active = 0;
  for (std::size_t d = 0; d < hist->arr_v.size(); ++d) {
    const JsonValue& bin = *hist->arr_v[d];
    const std::string bat =
        at + ".profile.depth_histogram[" + std::to_string(d) + "]";
    for (const char* field :
         {"depth", "steps", "active_lane_sum", "truncated_lanes",
          "mean_active"})
      if (!bin.find(field)) return fail(bat + ": missing \"" + field + "\"");
    if (bin.find("depth")->as_uint() != d)
      return fail(bat + ": depth is not dense/ascending");
    steps += bin.find("steps")->as_uint();
    active += bin.find("active_lane_sum")->as_uint();
  }
  // An empty histogram means the launch ran without a collector attached
  // (bucket split only); a populated one must reconcile exactly.
  if (!hist->arr_v.empty()) {
    if (steps != p->find("warp_steps")->as_uint())
      return fail(at + ".profile: depth_histogram steps sum to " +
                  std::to_string(steps) + " but warp_steps is " +
                  std::to_string(p->find("warp_steps")->as_uint()));
    if (active != p->find("active_lane_sum")->as_uint())
      return fail(at + ".profile: depth_histogram active-lane sum " +
                  "disagrees with active_lane_sum");
  }

  const JsonValue* hot = p->find("hot_nodes");
  if (!hot->is_array()) return fail(at + ".profile.hot_nodes: not an array");
  std::uint64_t prev_visits = 0;
  for (std::size_t i = 0; i < hot->arr_v.size(); ++i) {
    const JsonValue& n = *hot->arr_v[i];
    const std::string nat = at + ".profile.hot_nodes[" + std::to_string(i) +
                            "]";
    for (const char* field :
         {"node", "warp_visits", "active_lane_sum", "truncated_lanes",
          "mean_active_lanes", "truncation_rate"})
      if (!n.find(field)) return fail(nat + ": missing \"" + field + "\"");
    const std::uint64_t visits = n.find("warp_visits")->as_uint();
    if (i > 0 && visits > prev_visits)
      return fail(nat + ": hot_nodes not ranked by warp_visits desc");
    prev_visits = visits;
  }

  // Cross-check against the holder's own stats block: the profile is a
  // decomposition of those totals, not an independent measurement.
  if (const JsonValue* stats = holder.find("stats")) {
    if (stats->find("instr_cycles") &&
        stats->find("instr_cycles")->as_number() != instr)
      return fail(at + ".profile: instr_cycles disagrees with stats");
    if (stats->find("warp_steps") &&
        stats->find("warp_steps")->as_uint() !=
            p->find("warp_steps")->as_uint())
      return fail(at + ".profile: warp_steps disagrees with stats");
  }
  return 0;
}

// The optional "memory" block of a variant object `holder`: per-buffer traffic attribution, re-derived with EXACT
// equality -- the transaction size is a power of two, so every per-field
// share is a dyadic rational and the sums cannot drift (the same
// discipline as the cycle buckets). Checks, per row: the issued segments
// split exactly into smem-hit / L2-hit / DRAM outcomes, ideal <= issued
// with the reported coalescing efficiency == ideal/issued in (0, 1],
// replays bounded by load groups, and the field rows (including the
// implicit "(other)" share) summing to the row measure by measure. Across
// rows: the table must reconstruct the holder's aggregate stats counters,
// and -- when the holder also carries a profile -- the summed mem-stall
// cycles must equal the mem_stall cycle bucket.
int check_memory(const std::string& at, const JsonValue& holder) {
  const JsonValue* m = holder.find("memory");
  if (!m) return 0;  // exported only under --profile
  if (!m->is_object()) return fail(at + ".memory: not an object");
  const JsonValue* buffers = m->find("buffers");
  if (!buffers || !buffers->is_array())
    return fail(at + ".memory: missing \"buffers\" array");

  double sum_groups = 0, sum_l2 = 0, sum_dram = 0, sum_dram_bytes = 0;
  double sum_smem_hits = 0, sum_smem_misses = 0, sum_stall = 0;
  std::string prev_name;
  for (std::size_t i = 0; i < buffers->arr_v.size(); ++i) {
    const JsonValue& b = *buffers->arr_v[i];
    const std::string bat =
        at + ".memory.buffers[" + std::to_string(i) + "]";
    for (const char* field :
         {"name", "elem_bytes", "load_groups", "replayed_loads",
          "issued_segments", "ideal_segments", "coalescing_efficiency",
          "l2_hit_transactions", "dram_transactions", "dram_bytes",
          "smem_cache_hits", "smem_cache_misses", "mem_stall_cycles"})
      if (!b.find(field)) return fail(bat + ": missing \"" + field + "\"");
    const std::string& name = b.find("name")->as_string();
    if (i > 0 && !(prev_name < name))
      return fail(bat + ": buffers not sorted by name");
    prev_name = name;

    const double groups = b.find("load_groups")->as_number();
    const double replayed = b.find("replayed_loads")->as_number();
    const double issued = b.find("issued_segments")->as_number();
    const double ideal = b.find("ideal_segments")->as_number();
    const double l2 = b.find("l2_hit_transactions")->as_number();
    const double dram = b.find("dram_transactions")->as_number();
    const double dram_bytes = b.find("dram_bytes")->as_number();
    const double smem_hits = b.find("smem_cache_hits")->as_number();
    const double smem_misses = b.find("smem_cache_misses")->as_number();
    const double stall = b.find("mem_stall_cycles")->as_number();
    if (replayed > groups)
      return fail(bat + ": replayed_loads exceeds load_groups");
    if (issued != smem_hits + l2 + dram)
      return fail(bat + ": issued_segments (" + std::to_string(issued) +
                  ") do not split into smem-hit + L2-hit + DRAM outcomes");
    if (ideal > issued)
      return fail(bat + ": ideal_segments exceeds issued_segments");
    const double eff = b.find("coalescing_efficiency")->as_number();
    if (issued > 0) {
      if (eff != ideal / issued)
        return fail(bat + ": coalescing_efficiency is not "
                    "ideal_segments / issued_segments");
      if (!(eff > 0 && eff <= 1))
        return fail(bat + ": coalescing_efficiency " + std::to_string(eff) +
                    " outside (0, 1]");
    }
    sum_groups += groups;
    sum_l2 += l2;
    sum_dram += dram;
    sum_dram_bytes += dram_bytes;
    sum_smem_hits += smem_hits;
    sum_smem_misses += smem_misses;
    sum_stall += stall;

    if (const JsonValue* fields = b.find("fields")) {
      if (!fields->is_array()) return fail(bat + ".fields: not an array");
      double ft = 0, fl2 = 0, fdram = 0, fbytes = 0, fsmem = 0, fstall = 0;
      for (std::size_t j = 0; j < fields->arr_v.size(); ++j) {
        const JsonValue& f = *fields->arr_v[j];
        const std::string fat = bat + ".fields[" + std::to_string(j) + "]";
        for (const char* field :
             {"name", "offset", "bytes", "transactions", "l2_hit", "dram",
              "dram_bytes", "smem_cache_hits", "mem_stall_cycles"})
          if (!f.find(field))
            return fail(fat + ": missing \"" + field + "\"");
        ft += f.find("transactions")->as_number();
        fl2 += f.find("l2_hit")->as_number();
        fdram += f.find("dram")->as_number();
        fbytes += f.find("dram_bytes")->as_number();
        fsmem += f.find("smem_cache_hits")->as_number();
        fstall += f.find("mem_stall_cycles")->as_number();
      }
      if (ft != issued)
        return fail(bat + ": field transactions sum to " +
                    std::to_string(ft) + " but the row issued " +
                    std::to_string(issued) + " segments");
      if (fl2 != l2 || fdram != dram || fbytes != dram_bytes ||
          fsmem != smem_hits || fstall != stall)
        return fail(bat + ": field rows do not sum to the buffer row "
                    "(l2/dram/bytes/smem/stall)");
    }
  }

  // The table is a decomposition of the holder's aggregate counters --
  // exact equality, not tolerance.
  if (const JsonValue* stats = holder.find("stats")) {
    auto mismatch = [&](const char* key, double got) -> bool {
      const JsonValue* v = stats->find(key);
      return v && v->as_number() != got;
    };
    if (mismatch("load_instructions", sum_groups))
      return fail(at + ".memory: load_groups sum disagrees with "
                  "stats.load_instructions");
    if (mismatch("l2_hit_transactions", sum_l2))
      return fail(at + ".memory: L2-hit sum disagrees with stats");
    if (mismatch("dram_transactions", sum_dram))
      return fail(at + ".memory: DRAM transaction sum disagrees with stats");
    if (mismatch("dram_bytes", sum_dram_bytes))
      return fail(at + ".memory: DRAM byte sum disagrees with stats");
    if (mismatch("smem_cache_hits", sum_smem_hits))
      return fail(at + ".memory: smem-cache hit sum disagrees with stats");
    if (mismatch("smem_cache_misses", sum_smem_misses))
      return fail(at + ".memory: smem-cache miss sum disagrees with stats");
  }
  if (const JsonValue* p = holder.find("profile")) {
    if (p->is_object())
      if (const JsonValue* buckets = p->find("buckets"))
        if (const JsonValue* ms = buckets->find(
                tt::cycle_bucket_name(tt::CycleBucket::kMemStall)))
          if (ms->as_number() != sum_stall)
            return fail(at + ".memory: mem_stall_cycles sum to " +
                        std::to_string(sum_stall) +
                        " but the profile's mem_stall bucket is " +
                        std::to_string(ms->as_number()));
  }
  return 0;
}

// A percentile summary (latency_ms / queue_delay_ms): all fields present,
// non-negative, and monotone p50 <= p95 <= p99 <= max.
int check_latency_summary(const std::string& at, const JsonValue& s) {
  if (!s.is_object()) return fail(at + ": not an object");
  for (const char* field : {"count", "mean", "p50", "p95", "p99", "max"})
    if (!s.find(field)) return fail(at + ": missing \"" + field + "\"");
  const double p50 = s.find("p50")->as_number();
  const double p95 = s.find("p95")->as_number();
  const double p99 = s.find("p99")->as_number();
  const double mx = s.find("max")->as_number();
  if (p50 < 0) return fail(at + ".p50: negative");
  if (!(p50 <= p95 && p95 <= p99 && p99 <= mx))
    return fail(at + ": percentiles not monotone (p50 " +
                std::to_string(p50) + ", p95 " + std::to_string(p95) +
                ", p99 " + std::to_string(p99) + ", max " +
                std::to_string(mx) + ")");
  return 0;
}

// The optional serving block: admission accounting must balance
// (completed + dropped == submitted, per-drain query counts sum to
// completed), no drain may exceed drain_policy.max_batch, dispatch times
// never decrease, both percentile summaries must be monotone and agree
// with the admission accounting and the drains, and every queue gauge
// must be non-negative.
int check_serving(const JsonValue& serving) {
  if (!serving.is_object()) return fail("\"serving\" is not an object");
  for (const char* field :
       {"arrivals", "rate_qps", "queries", "devices", "variant",
        "drain_policy", "queue_capacity", "submitted", "completed",
        "dropped", "failed", "span_ms", "throughput_qps", "occupancy",
        "latency_ms", "queue_delay_ms", "queue", "transfer", "drains"})
    if (!serving.find(field))
      return fail(std::string("serving: missing \"") + field + "\"");

  const std::uint64_t submitted = serving.find("submitted")->as_uint();
  const std::uint64_t completed = serving.find("completed")->as_uint();
  const std::uint64_t dropped = serving.find("dropped")->as_uint();
  const std::uint64_t failed = serving.find("failed")->as_uint();
  if (completed + dropped != submitted)
    return fail("serving: completed " + std::to_string(completed) +
                " + dropped " + std::to_string(dropped) +
                " != submitted " + std::to_string(submitted) +
                " (was the session flushed?)");
  if (failed > completed)
    return fail("serving: failed exceeds completed");

  const JsonValue& latency = *serving.find("latency_ms");
  const JsonValue& delay = *serving.find("queue_delay_ms");
  for (const auto& [at, s] : {std::pair{"serving.latency_ms", &latency},
                              std::pair{"serving.queue_delay_ms", &delay}}) {
    if (int rc = check_latency_summary(at, *s)) return rc;
    // Every completed query has a latency and a queue delay.
    const std::uint64_t count = s->find("count")->as_uint();
    if (count != completed)
      return fail(std::string(at) + ".count " + std::to_string(count) +
                  " is not completed " + std::to_string(completed));
    // A mean of non-negative values no larger than max, up to the rounding
    // of its running sum: at most about count ulps of max.
    const double mean = s->find("mean")->as_number();
    const double mx = s->find("max")->as_number();
    const double slack = static_cast<double>(count) * 0x1p-52;
    if (!(mean >= 0 && mean <= mx * (1 + slack)))
      return fail(std::string(at) + ".mean " + tt::obs::json_number(mean) +
                  " is outside [0, max " + tt::obs::json_number(mx) + "]");
  }
  // A query's latency is its queue delay + its wave's service time.
  const double latency_max = latency.find("max")->as_number();
  const double delay_max = delay.find("max")->as_number();
  if (delay_max > latency_max)
    return fail("serving.queue_delay_ms.max " +
                tt::obs::json_number(delay_max) + " exceeds latency_ms.max " +
                tt::obs::json_number(latency_max));

  const JsonValue* queue = serving.find("queue");
  if (!queue->is_object()) return fail("serving.queue: not an object");
  for (const char* field : {"depth_max", "depth_mean", "depth_stddev"}) {
    const JsonValue* v = queue->find(field);
    if (!v) return fail(std::string("serving.queue: missing \"") + field +
                        "\"");
    if (v->as_number() < 0)
      return fail(std::string("serving.queue.") + field + ": negative");
  }
  if (serving.find("occupancy")->as_number() < 0)
    return fail("serving.occupancy: negative");

  const JsonValue* policy = serving.find("drain_policy");
  if (!policy->is_object() || !policy->find("max_batch"))
    return fail("serving.drain_policy: missing \"max_batch\"");
  const std::uint64_t max_batch = policy->find("max_batch")->as_uint();

  const JsonValue* drains = serving.find("drains");
  if (!drains->is_array()) return fail("serving.drains: not an array");
  std::uint64_t drained = 0;
  double prev_dispatch = 0;
  for (std::size_t i = 0; i < drains->arr_v.size(); ++i) {
    const JsonValue& d = *drains->arr_v[i];
    const std::string at = "serving.drains[" + std::to_string(i) + "]";
    for (const char* field :
         {"dispatch_ms", "device", "queries",
          "queue_depth_before", "cold_launches", "transfer_ms",
          "solo_transfer_ms", "compute_ms", "service_ms", "residency",
          "total_chunks", "rounds", "switches"})
      if (!d.find(field)) return fail(at + ": missing \"" + field + "\"");
    const std::uint64_t q = d.find("queries")->as_uint();
    if (q == 0) return fail(at + ": empty drain");
    if (q > max_batch)
      return fail(at + ": " + std::to_string(q) +
                  " queries exceed drain_policy.max_batch " +
                  std::to_string(max_batch));
    if (d.find("device")->as_uint() >= serving.find("devices")->as_uint())
      return fail(at + ": device index out of range");
    drained += q;
    const double dispatch = d.find("dispatch_ms")->as_number();
    if (i > 0 && dispatch < prev_dispatch)
      return fail(at + ": dispatch times not non-decreasing");
    prev_dispatch = dispatch;
    if (d.find("transfer_ms")->as_number() >
        d.find("solo_transfer_ms")->as_number() + 1e-9)
      return fail(at + ": amortized transfer exceeds summed solo transfer");
  }
  if (drained != completed)
    return fail("serving.drains: per-drain queries sum to " +
                std::to_string(drained) + " but completed is " +
                std::to_string(completed));

  // The block's totals reconcile with its drains exactly: each is summed
  // in dispatch order, as the session sums it. The session adds up busy
  // time apart from its drain log, so occupancy also catches a log that
  // hands back the wrong drain. A second pass, so a drain's shape fault
  // above is reported before any sum it spoils.
  double amortized = 0;
  double solo = 0;
  double busy = 0;
  for (std::size_t i = 0; i < drains->arr_v.size(); ++i) {
    const JsonValue& d = *drains->arr_v[i];
    const std::string at = "serving.drains[" + std::to_string(i) + "]";
    const double transfer = d.find("transfer_ms")->as_number();
    const double compute = d.find("compute_ms")->as_number();
    const double service = d.find("service_ms")->as_number();
    if (service != transfer + compute)
      return fail(at + ": service_ms " + tt::obs::json_number(service) +
                  " is not transfer_ms + compute_ms = " +
                  tt::obs::json_number(transfer + compute));
    // Each of the drain's queries took at least its service time.
    if (latency_max < service)
      return fail("serving.latency_ms.max " +
                  tt::obs::json_number(latency_max) + " is below drains[" +
                  std::to_string(i) + "].service_ms " +
                  tt::obs::json_number(service));
    if (d.find("cold_launches")->as_uint() > d.find("queries")->as_uint())
      return fail(at + ": cold_launches exceed queries");
    amortized += transfer;
    solo += d.find("solo_transfer_ms")->as_number();
    busy += service;
  }
  auto check_total = [&](const char* field, double sum) {
    const JsonValue* v = serving.find("transfer")->find(field);
    if (!v)
      return fail(std::string("serving.transfer: missing \"") + field + "\"");
    if (v->as_number() != sum)
      return fail(std::string("serving.transfer.") + field + " " +
                  tt::obs::json_number(v->as_number()) +
                  " is not the drains' sum " + tt::obs::json_number(sum));
    return 0;
  };
  if (int rc = check_total("amortized_ms", amortized)) return rc;
  if (int rc = check_total("summed_solo_ms", solo)) return rc;
  const double span = serving.find("span_ms")->as_number();
  const double devices =
      static_cast<double>(serving.find("devices")->as_uint());
  const double occupancy = serving.find("occupancy")->as_number();
  const double busy_share = span > 0 ? busy / (span * devices) : 0;
  if (occupancy != busy_share)
    return fail("serving.occupancy " + tt::obs::json_number(occupancy) +
                " is not the drains' summed service_ms " +
                tt::obs::json_number(busy) + " / (span_ms " +
                tt::obs::json_number(span) + " x devices " +
                tt::obs::json_number(devices) +
                ") = " + tt::obs::json_number(busy_share));

  if (const JsonValue* sweep = serving.find("sweep")) {
    if (!sweep->is_array()) return fail("serving.sweep: not an array");
    for (std::size_t i = 0; i < sweep->arr_v.size(); ++i) {
      const JsonValue& p = *sweep->arr_v[i];
      const std::string at = "serving.sweep[" + std::to_string(i) + "]";
      for (const char* field :
           {"max_batch", "drains", "mean_batch", "p50_ms",
            "p95_ms", "p99_ms", "throughput_qps", "transfer_saved_ms"})
        if (!p.find(field)) return fail(at + ": missing \"" + field + "\"");
      if (!(p.find("p50_ms")->as_number() <=
                p.find("p95_ms")->as_number() &&
            p.find("p95_ms")->as_number() <= p.find("p99_ms")->as_number()))
        return fail(at + ": percentiles not monotone");
      if (p.find("transfer_saved_ms")->as_number() < -1e-9)
        return fail(at + ": negative transfer_saved_ms");
    }
  }
  return 0;
}

// The optional devices block: per-device work must sum to each
// kernel's totals, pipelined overlap can only hide copy-in time, every
// device's busy time must decompose into exposed transfer + compute, and
// the makespan must be exactly the slowest device's clock -- never more
// than the summed per-device time (sharding cannot create work).
int check_devices(const JsonValue& devices) {
  if (!devices.is_object()) return fail("\"devices\" is not an object");
  for (const char* field :
       {"devices", "chunk_points", "policy", "variant", "single_device_ms",
        "makespan_ms", "speedup", "kernels", "transfer", "sweep"})
    if (!devices.find(field))
      return fail(std::string("devices: missing \"") + field + "\"");
  const std::uint64_t n_devices = devices.find("devices")->as_uint();
  if (n_devices == 0) return fail("devices.devices: must be >= 1");

  const JsonValue* kernels = devices.find("kernels");
  if (!kernels->is_array()) return fail("devices.kernels: not an array");
  double kernel_makespan_sum = 0;
  double kernel_single_sum = 0;
  for (std::size_t i = 0; i < kernels->arr_v.size(); ++i) {
    const JsonValue& k = *kernels->arr_v[i];
    const std::string at = "devices.kernels[" + std::to_string(i) + "]";
    for (const char* field :
         {"kernel", "ok", "points", "chunks", "variant", "single_device_ms",
          "makespan_ms", "speedup", "per_device"})
      if (!k.find(field)) return fail(at + ": missing \"" + field + "\"");
    if (!k.find("ok")->as_bool()) {
      if (!k.find("error")) return fail(at + ": failed kernel without error");
      continue;
    }
    const JsonValue* per = k.find("per_device");
    if (!per->is_array()) return fail(at + ".per_device: not an array");
    if (per->arr_v.size() != n_devices)
      return fail(at + ".per_device: " + std::to_string(per->arr_v.size()) +
                  " entries for " + std::to_string(n_devices) + " devices");
    std::uint64_t chunks = 0, points = 0;
    double busy_sum = 0, busy_max = 0;
    for (std::size_t d = 0; d < per->arr_v.size(); ++d) {
      const JsonValue& dev = *per->arr_v[d];
      const std::string dat = at + ".per_device[" + std::to_string(d) + "]";
      for (const char* field :
           {"device", "chunks", "points", "rounds", "steals", "cost",
            "upload_bytes", "download_bytes", "copy_chunks", "compute_ms",
            "copy_in_ms", "copy_out_ms", "overlap_ms", "exposed_ms",
            "busy_ms"})
        if (!dev.find(field)) return fail(dat + ": missing \"" + field + "\"");
      if (dev.find("device")->as_uint() != d)
        return fail(dat + ": device indices not dense/ascending");
      chunks += dev.find("chunks")->as_uint();
      points += dev.find("points")->as_uint();
      const double overlap = dev.find("overlap_ms")->as_number();
      const double copy_in = dev.find("copy_in_ms")->as_number();
      const double exposed = dev.find("exposed_ms")->as_number();
      const double compute = dev.find("compute_ms")->as_number();
      const double busy = dev.find("busy_ms")->as_number();
      if (overlap < 0) return fail(dat + ".overlap_ms: negative");
      if (overlap > copy_in + 1e-9)
        return fail(dat + ": overlap_ms exceeds copy_in_ms (overlap can "
                    "only hide upload time)");
      if (std::abs(busy - (exposed + compute)) > 1e-9)
        return fail(dat + ": busy_ms != exposed_ms + compute_ms");
      busy_sum += busy;
      busy_max = std::max(busy_max, busy);
    }
    if (chunks != k.find("chunks")->as_uint())
      return fail(at + ": per-device chunks sum to " +
                  std::to_string(chunks) + " but kernel has " +
                  std::to_string(k.find("chunks")->as_uint()));
    if (points != k.find("points")->as_uint())
      return fail(at + ": per-device points sum to " +
                  std::to_string(points) + " but kernel has " +
                  std::to_string(k.find("points")->as_uint()));
    const double makespan = k.find("makespan_ms")->as_number();
    if (std::abs(makespan - busy_max) > 1e-9)
      return fail(at + ": makespan_ms is not the slowest device's busy_ms");
    if (makespan > busy_sum + 1e-9)
      return fail(at + ": makespan_ms exceeds summed per-device busy time");
    kernel_makespan_sum += makespan;
    kernel_single_sum += k.find("single_device_ms")->as_number();
  }
  if (std::abs(devices.find("makespan_ms")->as_number() -
               kernel_makespan_sum) > 1e-9)
    return fail("devices.makespan_ms: does not sum the per-kernel makespans");
  if (std::abs(devices.find("single_device_ms")->as_number() -
               kernel_single_sum) > 1e-9)
    return fail("devices.single_device_ms: does not sum the per-kernel "
                "baselines");

  const JsonValue* sweep = devices.find("sweep");
  if (!sweep->is_array()) return fail("devices.sweep: not an array");
  for (std::size_t i = 0; i < sweep->arr_v.size(); ++i) {
    const JsonValue& p = *sweep->arr_v[i];
    const std::string at = "devices.sweep[" + std::to_string(i) + "]";
    for (const char* field :
         {"devices", "chunk_points", "single_device_ms", "makespan_ms",
          "speedup", "copy_in_ms", "overlap_ms", "exposed_ms",
          "overlap_efficiency"})
      if (!p.find(field)) return fail(at + ": missing \"" + field + "\"");
    if (p.find("overlap_ms")->as_number() >
        p.find("copy_in_ms")->as_number() + 1e-9)
      return fail(at + ": overlap_ms exceeds copy_in_ms");
    const double eff = p.find("overlap_efficiency")->as_number();
    if (eff < 0 || eff > 1 + 1e-9)
      return fail(at + ": overlap_efficiency outside [0, 1]");
  }
  return 0;
}

// The optional fusion block: per pair x variant, an ok row must be
// byte_identical to its sequential baseline, the fused walk's visit count
// is re-derived to be bounded by the constituents' sum (the union can
// never exceed it), the reported visit savings must be non-negative, and
// the fused and sequential (two-launch sum) time blocks must hold the
// check_time invariant.
int check_fusion(const JsonValue& fusion) {
  if (!fusion.is_object()) return fail("\"fusion\" is not an object");
  const JsonValue* pairs = fusion.find("pairs");
  if (!pairs || !pairs->is_array())
    return fail("fusion: missing \"pairs\" array");
  for (std::size_t i = 0; i < pairs->arr_v.size(); ++i) {
    const JsonValue& p = *pairs->arr_v[i];
    const std::string at = "fusion.pairs[" + std::to_string(i) + "]";
    for (const char* field : {"fused", "first", "second", "points",
                              "variants"})
      if (!p.find(field)) return fail(at + ": missing \"" + field + "\"");
    const JsonValue* variants = p.find("variants");
    if (!variants->is_array()) return fail(at + ".variants: not an array");
    std::size_t ok_rows = 0;
    for (std::size_t j = 0; j < variants->arr_v.size(); ++j) {
      const JsonValue& r = *variants->arr_v[j];
      const std::string vat = at + ".variants[" + std::to_string(j) + "]";
      if (!r.find("variant")) return fail(vat + ": missing \"variant\"");
      if (!r.find("ok")) return fail(vat + ": missing \"ok\"");
      if (!r.find("ok")->as_bool()) {
        if (!r.find("error")) return fail(vat + ": failed row without error");
        continue;
      }
      ++ok_rows;
      for (const char* field :
           {"byte_identical", "fused_stats", "fused_time",
            "sequential_stats", "sequential_time", "visit_cycles_saved",
            "mem_stall_cycles_saved"})
        if (!r.find(field)) return fail(vat + ": missing \"" + field + "\"");
      if (!r.find("byte_identical")->as_bool())
        return fail(vat + ": fused results are not byte-identical to the "
                    "sequential baseline");
      const JsonValue* fs = r.find("fused_stats");
      const JsonValue* ss = r.find("sequential_stats");
      if (!fs->is_object() || !ss->is_object())
        return fail(vat + ": stats blocks are not objects");
      if (!fs->find("lane_visits"))
        return fail(vat + ".fused_stats: missing \"lane_visits\"");
      if (!ss->find("lane_visits"))
        return fail(vat + ".sequential_stats: missing \"lane_visits\"");
      const std::uint64_t fused_visits = fs->find("lane_visits")->as_uint();
      const std::uint64_t seq_visits = ss->find("lane_visits")->as_uint();
      if (fused_visits > seq_visits)
        return fail(vat + ": fused walk visits " +
                    std::to_string(fused_visits) +
                    " nodes but the constituents' sum is " +
                    std::to_string(seq_visits) +
                    " (the union cannot exceed the sum)");
      // Visit savings are sign-guaranteed (the union walk charges fewer
      // visits than the sum); mem_stall savings are reported but not
      // sign-checked -- better fused locality can legitimately trade DRAM
      // transactions for more L2-hit stalls on an individual row.
      if (r.find("visit_cycles_saved")->as_number() < 0)
        return fail(vat + ": negative visit_cycles_saved");
      if (int rc = check_time(vat + ".fused_time", *r.find("fused_time"),
                              false, false))
        return rc;
      if (int rc = check_time(vat + ".sequential_time",
                              *r.find("sequential_time"), true, false))
        return rc;
    }
    if (ok_rows == 0)
      return fail(at + ": no ok variant rows (nothing was measured)");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--golden") == 0)
    return compare_golden(argv[2], argv[3]);
  if (argc != 2) {
    std::cerr << "usage: json_validate <report.json>\n"
              << "       json_validate --golden <golden.json> <report.json>\n";
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) return fail(std::string("cannot open ") + argv[1]);
  std::ostringstream buf;
  buf << in.rdbuf();

  try {
    auto root = tt::obs::json_parse(buf.str());
    if (!root->is_object()) return fail("root is not an object");
    const JsonValue* schema = root->find("schema");
    if (!schema) return fail("missing \"schema\"");
    if (schema->as_string() != tt::obs::kRunReportSchema)
      return fail("schema is \"" + schema->as_string() + "\", expected \"" +
                  tt::obs::kRunReportSchema + "\"");
    for (const char* field :
         {"generator", "git_sha", "profile_samples", "profile_seed"})
      if (!root->find(field))
        return fail(std::string("missing \"") + field + "\"");
    const JsonValue* rows = root->find("rows");
    if (!rows || !rows->is_array()) return fail("missing \"rows\" array");
    const JsonValue* tables = root->find("tables");
    if (!tables || !tables->is_array())
      return fail("missing \"tables\" array");

    const JsonValue* device = root->find("device");
    const JsonValue* clock_ghz = device ? device->find("clock_ghz") : nullptr;
    for (std::size_t i = 0; i < rows->arr_v.size(); ++i) {
      const JsonValue& row = *rows->arr_v[i];
      const std::string at = "rows[" + std::to_string(i) + "]";
      if (!row.find("config")) return fail(at + ": missing \"config\"");
      const JsonValue* variants = row.find("variants");
      if (!variants || !variants->is_object())
        return fail(at + ": missing \"variants\" object");
      // BH rows sum one launch per timestep.
      const JsonValue* transfer = row.find("transfer");
      const JsonValue* launches =
          transfer ? transfer->find("launches") : nullptr;
      const bool summed = launches && launches->as_uint() > 1;
      for (tt::Variant v : tt::kAllVariants) {
        const JsonValue* vr = variants->find(tt::variant_name(v));
        if (!vr) return fail(at + ": missing variant " + tt::variant_name(v));
        const std::string vat = at + "." + tt::variant_name(v);
        for (const char* field : {"ok", "stats", "time"})
          if (!vr->find(field))
            return fail(vat + ": missing \"" + field + "\"");
        const bool ok = vr->find("ok")->as_bool();
        const bool selected = v == tt::Variant::kAutoSelect && ok;
        if (selected)
          if (int rc = check_selection(vat, *vr); rc != 0) return rc;
        const JsonValue& time = *vr->find("time");
        if (int rc = check_time(vat + ".time", time, summed, selected))
          return rc;
        if (selected && !summed) {
          if (!clock_ghz)
            return fail(vat + ": auto_select row in a report without "
                        "\"device\".clock_ghz");
          const double sampling_ms =
              vr->find("selection")->find("sampling_cycles")->as_number() /
              (clock_ghz->as_number() * 1e6);
          if (time.find("select_ms")->as_number() != sampling_ms)
            return fail(vat + ".time: select_ms is not "
                        "selection.sampling_cycles / (device.clock_ghz * "
                        "1e6) = " + tt::obs::json_number(sampling_ms));
        }
        // A variant with no stack state can have no stack footprint: zero
        // peak depth and (when profiled) an empty stack bucket.
        if (tt::variant_is_stackless(v) && ok) {
          const JsonValue* stats = vr->find("stats");
          if (const JsonValue* peak = stats->find("peak_stack_entries"))
            if (peak->as_uint() != 0)
              return fail(vat + ": stackless variant reports " +
                          std::to_string(peak->as_uint()) +
                          " peak_stack_entries");
          if (const JsonValue* p = vr->find("profile"))
            if (p->is_object())
              if (const JsonValue* buckets = p->find("buckets"))
                if (const JsonValue* sb = buckets->find(
                        tt::cycle_bucket_name(tt::CycleBucket::kStack)))
                  if (sb->as_number() != 0)
                    return fail(vat + ": stackless variant charged " +
                                std::to_string(sb->as_number()) +
                                " cycles to the stack bucket");
        }
        if (int rc = check_profile(vat, *vr); rc != 0) return rc;
        if (int rc = check_memory(vat, *vr); rc != 0) return rc;
      }
    }
    if (const JsonValue* serving = root->find("serving")) {
      int rc = check_serving(*serving);
      if (rc != 0) return rc;
    }
    if (const JsonValue* devices = root->find("devices")) {
      int rc = check_devices(*devices);
      if (rc != 0) return rc;
    }
    if (const JsonValue* fusion = root->find("fusion")) {
      int rc = check_fusion(*fusion);
      if (rc != 0) return rc;
    }
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  std::cout << "json_validate: " << argv[1] << " OK\n";
  return 0;
}
