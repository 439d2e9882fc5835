#include "obs/run_report.h"

#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "obs/profile.h"
#include "simt/cost_model.h"

#ifndef TT_GIT_SHA
#define TT_GIT_SHA "unknown"
#endif

namespace tt::obs {

namespace {

void write_summary(JsonWriter& w, const Summary& s) {
  w.begin_object();
  w.member("count", static_cast<std::uint64_t>(s.count));
  w.member("mean", s.mean);
  w.member("stddev", s.stddev);
  w.member("min", s.min);
  w.member("max", s.max);
  w.end_object();
}

void write_kernel_stats(JsonWriter& w, const KernelStats& s) {
  w.begin_object();
  w.member("load_instructions", s.load_instructions);
  w.member("dram_transactions", s.dram_transactions);
  w.member("l2_hit_transactions", s.l2_hit_transactions);
  w.member("dram_bytes", s.dram_bytes);
  w.member("instr_cycles", s.instr_cycles);
  w.member("warp_steps", s.warp_steps);
  w.member("lane_visits", s.lane_visits);
  w.member("warp_pops", s.warp_pops);
  w.member("calls", s.calls);
  w.member("votes", s.votes);
  w.member("active_lane_sum", s.active_lane_sum);
  w.member("peak_stack_entries", s.peak_stack_entries);
  w.member("smem_cache_hits", s.smem_cache_hits);
  w.member("smem_cache_misses", s.smem_cache_misses);
  w.member("shared_loads_elided", s.shared_loads_elided);
  w.end_object();
}

void write_time(JsonWriter& w, const TimeBreakdown& t) {
  w.begin_object();
  w.member("compute_ms", t.compute_ms);
  w.member("memory_ms", t.memory_ms);
  w.member("select_ms", t.select_ms);
  w.member("total_ms", t.total_ms);
  w.member("memory_bound", t.memory_bound);
  w.member("imbalance", t.imbalance);
  w.end_object();
}

void write_device(JsonWriter& w, const DeviceConfig& d) {
  w.begin_object();
  w.member("warp_size", d.warp_size);
  w.member("num_sms", d.num_sms);
  w.member("resident_warps_per_sm", d.resident_warps_per_sm);
  w.member("clock_ghz", d.clock_ghz);
  w.member("mem_bandwidth_gbps", d.mem_bandwidth_gbps);
  w.member("transaction_bytes", d.transaction_bytes);
  w.member("l2_bytes", static_cast<std::uint64_t>(d.l2_bytes));
  w.member("l2_line_bytes", d.l2_line_bytes);
  w.member("l2_assoc", d.l2_assoc);
  w.member("model_l2", d.model_l2);
  w.member("shared_mem_per_sm", static_cast<std::uint64_t>(d.shared_mem_per_sm));
  w.member("c_visit", d.c_visit);
  w.member("c_step", d.c_step);
  w.member("c_call", d.c_call);
  w.member("c_vote", d.c_vote);
  w.member("c_smem", d.c_smem);
  w.member("c_l2hit", d.c_l2hit);
  w.member("stack_entry_bytes", d.stack_entry_bytes);
  w.member("frame_bytes", d.frame_bytes);
  w.end_object();
}

void write_config(JsonWriter& w, const BenchConfig& c) {
  w.begin_object();
  w.member("algo", algo_name(c.algo));
  w.member("input", input_name(c.input));
  w.member("n", static_cast<std::uint64_t>(c.n));
  w.member("sorted", c.sorted);
  w.member("seed", c.seed);
  w.member("dim", c.dim);
  w.member("k", c.k);
  w.member("pc_target_neighbors", c.pc_target_neighbors);
  w.member("bh_theta", static_cast<double>(c.bh_theta));
  w.member("bh_timesteps", c.bh_timesteps);
  w.member("leaf_size", c.leaf_size);
  w.end_object();
}

void write_latency(JsonWriter& w, const LatencySummary& s) {
  w.begin_object();
  w.member("count", static_cast<std::uint64_t>(s.count));
  w.member("mean", s.mean);
  w.member("p50", s.p50);
  w.member("p95", s.p95);
  w.member("p99", s.p99);
  w.member("max", s.max);
  w.end_object();
}

void write_selection(JsonWriter& w, const SelectionInfo& s) {
  w.begin_object();
  w.member("mean_similarity", s.mean_similarity);
  w.member("baseline_similarity", s.baseline_similarity);
  w.member("samples", s.samples);
  w.member("predicted_lockstep_ms", s.predicted_lockstep_ms);
  w.member("predicted_nolockstep_ms", s.predicted_nolockstep_ms);
  w.member("chosen", variant_name(s.chosen));
  w.member("sampling_cycles", s.sampling_cycles);
  w.end_object();
}

}  // namespace

RunReport::RunReport(std::string generator)
    : generator_(std::move(generator)) {}

void RunReport::add_table(const std::string& name, const Table& table,
                          bool volatile_data) {
  tables_.push_back(NamedTable{name, table, volatile_data});
}

void RunReport::write(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.member("schema", kRunReportSchema);
  w.member("generator", generator_);
  w.member("git_sha", TT_GIT_SHA);
  if (seed_) w.member("seed", *seed_);
  if (profile_samples_) w.member("profile_samples", *profile_samples_);
  if (profile_seed_) w.member("profile_seed", *profile_seed_);
  w.member("include_volatile", include_volatile_);
  if (device_) {
    w.key("device");
    write_device(w, *device_);
  }

  w.member_array("rows");
  for (const BenchRow& row : rows_) {
    w.begin_object();
    w.key("config");
    write_config(w, row.config);

    w.member_object("variants");
    for (Variant v : kAllVariants) {
      const VariantResult& r = row.result(v);
      w.member_object(variant_name(v));
      w.member("ok", r.ok());
      if (!r.ok()) w.member("error", r.error);
      w.member("avg_nodes", r.avg_nodes);
      w.key("stats");
      write_kernel_stats(w, r.stats);
      w.key("time");
      write_time(w, r.time);
      if (r.selection) {
        w.key("selection");
        write_selection(w, *r.selection);
      }
      if (r.profile) {
        w.key("profile");
        write_profile_json(w, *r.profile);
      }
      if (include_memory_ && !r.stats.memory.empty()) {
        w.key("memory");
        write_memory_json(w, r.stats.memory);
      }
      if (include_volatile_) w.member("sim_wall_ms", r.sim_wall_ms);
      w.end_object();
    }
    w.end_object();  // variants

    w.member_object("cpu");
    w.member("visits", row.cpu_visits);
    w.member("model_beta", row.cpu_model.beta);
    w.member("model_speedup_at_32", row.cpu_model.speedup(32));
    if (include_volatile_) {
      // Environment-dependent: the host thread count and wall timings vary
      // across machines and OMP settings, so the default report (which must
      // be byte-identical for a given seed) omits them.
      w.member("threads_measured", row.cpu_threads_measured);
      w.member("t1_ms", row.cpu_t1_ms);
      w.member("tmax_ms", row.cpu_tmax_ms);
    }
    w.end_object();

    w.key("work_expansion");
    write_summary(w, row.work_expansion);

    w.member_object("transfer");
    w.member("upload_bytes", row.upload_bytes);
    w.member("download_bytes", row.download_bytes);
    w.member("launches", row.launches);
    w.member("pcie_gbps", row.transfer.pcie_gbps);
    w.member("launch_overhead_ms", row.transfer.launch_overhead_ms);
    w.member("round_trip_ms", row.transfer_ms());
    w.end_object();

    w.end_object();  // row
  }
  w.end_array();

  if (serving_) {
    const ServingRunSummary& s = *serving_;
    const ServingReport& r = s.report;
    w.member_object("serving");
    w.member("arrivals", s.arrivals);
    w.member("rate_qps", s.rate_qps);
    w.member("queries", static_cast<std::uint64_t>(s.n_queries));
    w.member("devices", static_cast<std::uint64_t>(r.devices));
    w.member("variant", variant_name(s.variant));
    w.member_object("drain_policy");
    w.member("max_batch", static_cast<std::uint64_t>(s.drain.max_batch));
    w.end_object();
    w.member("queue_capacity", static_cast<std::uint64_t>(s.queue_capacity));

    w.member("submitted", static_cast<std::uint64_t>(r.submitted));
    w.member("completed", static_cast<std::uint64_t>(r.completed));
    w.member("dropped", static_cast<std::uint64_t>(r.dropped));
    w.member("failed", static_cast<std::uint64_t>(r.failed));
    w.member("span_ms", r.span_ms());
    w.member("throughput_qps", r.throughput_qps());
    w.member("occupancy", r.occupancy());
    w.key("latency_ms");
    write_latency(w, r.latency);
    w.key("queue_delay_ms");
    write_latency(w, r.queue_delay);
    w.member_object("queue");
    w.member("depth_max", static_cast<std::uint64_t>(r.queue_depth_max));
    w.member("depth_mean", r.queue_depth.mean);
    w.member("depth_stddev", r.queue_depth.stddev);
    w.end_object();
    w.member_object("transfer");
    w.member("amortized_ms", r.amortized_transfer_ms());
    w.member("summed_solo_ms", r.summed_solo_transfer_ms());
    w.member("pcie_gbps", s.transfer.pcie_gbps);
    w.member("launch_overhead_ms", s.transfer.launch_overhead_ms);
    w.end_object();

    w.member_array("drains");
    for (const DrainRecord& d : r.drains) {
      w.begin_object();
      w.member("dispatch_ms", d.dispatch_ms);
      w.member("device", static_cast<std::uint64_t>(d.device));
      w.member("queries", static_cast<std::uint64_t>(d.n_queries));
      w.member("queue_depth_before",
               static_cast<std::uint64_t>(d.queue_depth_before));
      w.member("cold_launches", static_cast<std::uint64_t>(d.cold_launches));
      w.member("transfer_ms", d.transfer_ms);
      w.member("solo_transfer_ms", d.solo_transfer_ms);
      w.member("compute_ms", d.compute_ms);
      w.member("service_ms", d.service_ms());
      w.member("residency", static_cast<std::uint64_t>(d.residency));
      w.member("total_chunks", static_cast<std::uint64_t>(d.total_chunks));
      w.member("rounds", static_cast<std::uint64_t>(d.rounds));
      w.member("switches", static_cast<std::uint64_t>(d.switches));
      w.end_object();
    }
    w.end_array();

    w.member_array("sweep");
    for (const ServingSweepPoint& p : s.sweep) {
      w.begin_object();
      w.member("max_batch", static_cast<std::uint64_t>(p.max_batch));
      w.member("drains", static_cast<std::uint64_t>(p.drains));
      w.member("mean_batch", p.mean_batch);
      w.member("p50_ms", p.p50_ms);
      w.member("p95_ms", p.p95_ms);
      w.member("p99_ms", p.p99_ms);
      w.member("throughput_qps", p.throughput_qps);
      w.member("transfer_saved_ms", p.transfer_saved_ms);
      w.end_object();
    }
    w.end_array();

    w.end_object();  // serving
  }

  if (sharding_) {
    const ShardingRunSummary& s = *sharding_;
    w.member_object("devices");
    w.member("devices", static_cast<std::uint64_t>(s.devices));
    w.member("chunk_points", static_cast<std::uint64_t>(s.chunk_points));
    w.member("policy", batch_policy_name(s.policy));
    w.member("variant", variant_name(s.variant));
    w.member("single_device_ms", s.single_device_ms());
    w.member("makespan_ms", s.makespan_ms());
    w.member("speedup", s.speedup());

    w.member_array("kernels");
    for (const ShardingKernelReport& k : s.kernels) {
      w.begin_object();
      w.member("kernel", k.kernel_name);
      w.member("ok", k.ok());
      if (!k.ok()) w.member("error", k.error);
      w.member("points", static_cast<std::uint64_t>(k.n_points));
      w.member("chunks", static_cast<std::uint64_t>(k.n_chunks));
      w.member("variant", variant_name(k.variant));
      w.member("single_device_ms", k.single_device_ms);
      w.member("makespan_ms", k.makespan_ms);
      w.member("speedup", k.speedup);
      w.member_array("per_device");
      for (const DeviceShard& d : k.devices) {
        w.begin_object();
        w.member("device", static_cast<std::uint64_t>(d.device));
        w.member("chunks", static_cast<std::uint64_t>(d.chunks));
        w.member("points", static_cast<std::uint64_t>(d.points));
        w.member("rounds", static_cast<std::uint64_t>(d.rounds));
        w.member("steals", static_cast<std::uint64_t>(d.steals));
        w.member("cost", d.cost);
        w.member("upload_bytes", d.upload_bytes);
        w.member("download_bytes", d.download_bytes);
        w.member("copy_chunks", static_cast<std::uint64_t>(d.transfer.chunks));
        w.member("compute_ms", d.time.total_ms);
        w.member("copy_in_ms", d.transfer.copy_in_ms);
        w.member("copy_out_ms", d.transfer.copy_out_ms);
        w.member("overlap_ms", d.transfer.overlap_ms);
        w.member("exposed_ms", d.transfer.exposed_ms);
        w.member("busy_ms", d.busy_ms);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();

    w.member_object("transfer");
    w.member("pcie_gbps", s.transfer.pcie_gbps);
    w.member("launch_overhead_ms", s.transfer.launch_overhead_ms);
    w.end_object();

    w.member_array("sweep");
    for (const ShardingSweepPoint& p : s.sweep) {
      w.begin_object();
      w.member("devices", static_cast<std::uint64_t>(p.devices));
      w.member("chunk_points", static_cast<std::uint64_t>(p.chunk_points));
      w.member("single_device_ms", p.single_device_ms);
      w.member("makespan_ms", p.makespan_ms);
      w.member("speedup", p.speedup);
      w.member("copy_in_ms", p.copy_in_ms);
      w.member("overlap_ms", p.overlap_ms);
      w.member("exposed_ms", p.exposed_ms);
      w.member("overlap_efficiency", p.overlap_efficiency);
      w.end_object();
    }
    w.end_array();

    w.end_object();  // devices
  }

  if (fusion_) {
    const FusionRunSummary& f = *fusion_;
    w.member_object("fusion");
    w.member_array("pairs");
    for (const FusionPairReport& p : f.pairs) {
      w.begin_object();
      w.member("fused", p.fused_name);
      w.member("first", p.first_name);
      w.member("second", p.second_name);
      w.member("points", p.n_points);
      w.member_array("variants");
      for (const FusionVariantRow& r : p.variants) {
        w.begin_object();
        w.member("variant", variant_name(r.variant));
        w.member("ok", r.ok);
        if (!r.ok) {
          w.member("error", r.error);
          w.end_object();
          continue;
        }
        w.member("byte_identical", r.byte_identical);
        w.key("fused_stats");
        write_kernel_stats(w, r.fused);
        w.key("fused_time");
        write_time(w, r.fused_time);
        w.key("sequential_stats");
        write_kernel_stats(w, r.sequential);
        w.key("sequential_time");
        write_time(w, r.sequential_time);
        w.member("visit_cycles_saved", r.visit_cycles_saved());
        w.member("mem_stall_cycles_saved", r.mem_stall_cycles_saved());
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();  // fusion
  }

  w.member_array("tables");
  for (const NamedTable& t : tables_) {
    if (t.volatile_data && !include_volatile_) continue;
    w.begin_object();
    w.member("name", t.name);
    w.member_array("header");
    for (const std::string& h : t.table.header()) w.value(h);
    w.end_array();
    w.member_array("rows");
    for (const auto& cells : t.table.data()) {
      w.begin_array();
      for (const std::string& c : cells) w.value(c);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.end_object();  // the writer newline-terminates the document at depth 0
}

std::string RunReport::to_string() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

bool RunReport::write_file(const std::string& path, std::string* err) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    if (err) *err = "cannot open " + path + " for writing";
    return false;
  }
  write(os);
  os.flush();
  if (!os) {
    if (err) *err = "write to " + path + " failed";
    return false;
  }
  return true;
}

}  // namespace tt::obs
