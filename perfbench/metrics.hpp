// The metric vocabulary: every workload reports the same end-to-end set
// (--trace 0) and the same per-layer set (--trace 1), in this order, so
// runs of different workloads and commits line up name for name.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// End-to-end metrics. setup_s and calls_per_host_s summarise the run's
/// set-ups and rounds (setup_time, host_rate); the `sim` values are virtual
/// time and repeat exactly for a given seed.
struct EndToEnd {
  double setup_s = 0.0;            ///< world build before the timed phase
  double calls_per_host_s = 0.0;   ///< completed calls per host second
  double peak_rss_mb = 0.0;
  double finding_ms = 0.0;         ///< mean submit -> MA reply (sim)
  double sim_latency_p50_s = 0.0;  ///< per-call submit -> complete (sim)
  double sim_latency_tail_s = 0.0;
  double makespan_s = 0.0;         ///< first submit -> last completion (sim)
  double sim_throughput_rps = 0.0; ///< ok calls / makespan (sim)
};

void add_end_to_end(Result& result, const EndToEnd& e2e);

/// On a shared host interference only ever slows the benchmark's one
/// measuring thread: while the scheduler has it on a core a neighbour
/// loads, a round or set-up takes longer (up to 1.7x on a shared 4-vCPU
/// VM), and a run spends a varying share of its window there. The fast
/// samples follow the program's own cost.
///
/// setup_s from a run's set-up times: the fastest of them (every set-up
/// does the same work, so no sample can undercut its cost).
double setup_time(const std::vector<double>& setups);
/// calls_per_host_s from the per-round rates of a run: their 90th
/// percentile.
double host_rate(const std::vector<double>& rates);
/// Prints the median, minimum and maximum round rate and the median set-up
/// as extras.
void add_host_extras(Result& result, const std::vector<double>& rates,
                     const std::vector<double>& setups);

/// Per-layer metrics from the traced rounds, the set every workload reports
/// in its JSON line. Counts are per DIET request (call) or per round
/// ("campaign"); times are host seconds per round. A layer a workload never
/// enters reports a count of 0. Host times of layers only one workload
/// enters (the numeric stages, the load planner, the journal export) are
/// printed by that workload as extra lines instead: a time that is 0 on
/// every run of the other workload would measure nothing.
struct Layers {
  // des: run_stepped over the timed phase
  double des_events_per_request = 0.0;
  double des_timer_events_per_request = 0.0;
  double des_execute_events_per_request = 0.0;
  double des_timer_busy_s = 0.0;
  double des_message_busy_s = 0.0;
  double des_execute_busy_s = 0.0;
  double des_queue_depth_max = 0.0;
  // net: CensusHook over the timed phase
  double net_messages_per_request = 0.0;
  double net_bytes_per_request = 0.0;
  double net_collect_per_request = 0.0;
  double net_candidates_per_request = 0.0;
  // sched: TimedPolicy on the MA and every LA
  double sched_rank_calls_per_request = 0.0;
  double sched_candidates_per_rank = 0.0;
  double sched_rank_busy_s = 0.0;
  // diet: virtual-time phases from Client::records()
  double diet_finding_s_p99 = 0.0;
  double diet_queue_s_p99 = 0.0;
  double diet_exec_return_s_p99 = 0.0;
  // set-up phases
  double platform_build_s = 0.0;
  double diet_deploy_s = 0.0;
  double diet_register_s = 0.0;
  // numerics (campaign_real's stage replay)
  double ramses_pm_flops_computed = 0.0;
  double ramses_pm_bytes_computed = 0.0;
  double parallel_pm_speedup = 0.0;
  /// Timed phase minus the time inside execute events (the services'
  /// solve functions): DES, DIET, network model and client.
  double workflow_middleware_s = 0.0;
  // io: what one round left in its work directory
  double io_dirs_per_campaign = 0.0;
  double io_files_per_campaign = 0.0;
  double io_bytes_per_campaign = 0.0;
  // the Section-5 paper campaign checked inside campaign_real's run
  double paper_io_dirs_per_campaign = 0.0;
  double paper_io_files_per_campaign = 0.0;
  double paper_io_bytes_per_campaign = 0.0;
  double paper_des_events_per_campaign = 0.0;
  double paper_net_messages_per_campaign = 0.0;
  double paper_net_flows_per_campaign = 0.0;
  // the tracing itself
  double trace_overhead_pct = 0.0;
};

void add_layers(Result& result, const Layers& layers);

}  // namespace perfbench
