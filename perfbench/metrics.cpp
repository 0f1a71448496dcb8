#include "metrics.hpp"

namespace perfbench {

void add_end_to_end(Result& r, const EndToEnd& e) {
  r.metric("setup_s", e.setup_s, "s");
  r.metric("calls_per_host_s", e.calls_per_host_s, "calls/s");
  r.metric("peak_rss_mb", e.peak_rss_mb, "MiB");
  r.metric("finding_ms", e.finding_ms, "sim_ms");
  r.metric("sim_latency_p50_s", e.sim_latency_p50_s, "sim_s");
  r.metric("sim_latency_tail_s", e.sim_latency_tail_s, "sim_s");
  r.metric("makespan_s", e.makespan_s, "sim_s");
  r.metric("sim_throughput_rps", e.sim_throughput_rps, "req/sim_s");
}

double setup_time(const std::vector<double>& setups) {
  return quantile(setups, 0.0);
}

double host_rate(const std::vector<double>& rates) {
  return quantile(rates, 0.9);
}

void add_host_extras(Result& r, const std::vector<double>& rates,
                     const std::vector<double>& setups) {
  r.extra("calls_per_host_s_p50", quantile(rates, 0.5), "calls/s");
  r.extra("calls_per_host_s_min", quantile(rates, 0.0), "calls/s");
  r.extra("calls_per_host_s_max", quantile(rates, 1.0), "calls/s");
  r.extra("setup_s_p50", quantile(setups, 0.5), "s");
}

void add_layers(Result& r, const Layers& l) {
  r.metric("des.events_per_request", l.des_events_per_request, "count");
  r.metric("des.timer_events_per_request", l.des_timer_events_per_request,
           "count");
  r.metric("des.execute_events_per_request", l.des_execute_events_per_request,
           "count");
  r.metric("des.timer_busy_s", l.des_timer_busy_s, "s");
  r.metric("des.message_busy_s", l.des_message_busy_s, "s");
  r.metric("des.execute_busy_s", l.des_execute_busy_s, "s");
  r.metric("des.queue_depth_max", l.des_queue_depth_max, "count");
  r.metric("net.messages_per_request", l.net_messages_per_request, "count");
  r.metric("net.bytes_per_request", l.net_bytes_per_request, "B");
  r.metric("net.collect_per_request", l.net_collect_per_request, "count");
  r.metric("net.candidates_per_request", l.net_candidates_per_request, "count");
  r.metric("sched.rank_calls_per_request", l.sched_rank_calls_per_request,
           "count");
  r.metric("sched.candidates_per_rank", l.sched_candidates_per_rank, "count");
  r.metric("sched.rank_busy_s", l.sched_rank_busy_s, "s");
  r.metric("diet.finding_s_p99", l.diet_finding_s_p99, "sim_s");
  r.metric("diet.queue_s_p99", l.diet_queue_s_p99, "sim_s");
  r.metric("diet.exec_return_s_p99", l.diet_exec_return_s_p99, "sim_s");
  r.metric("platform.build_s", l.platform_build_s, "s");
  r.metric("diet.deploy_s", l.diet_deploy_s, "s");
  r.metric("diet.register_s", l.diet_register_s, "s");
  r.metric("ramses.pm_flops_computed", l.ramses_pm_flops_computed, "flop");
  r.metric("ramses.pm_bytes_computed", l.ramses_pm_bytes_computed, "B");
  r.metric("parallel.pm_speedup", l.parallel_pm_speedup, "x");
  r.metric("workflow.middleware_s", l.workflow_middleware_s, "s");
  r.metric("io.dirs_per_campaign", l.io_dirs_per_campaign, "count");
  r.metric("io.files_per_campaign", l.io_files_per_campaign, "count");
  r.metric("io.bytes_per_campaign", l.io_bytes_per_campaign, "B");
  r.metric("paper.io.dirs_per_campaign", l.paper_io_dirs_per_campaign, "count");
  r.metric("paper.io.files_per_campaign", l.paper_io_files_per_campaign,
           "count");
  r.metric("paper.io.bytes_per_campaign", l.paper_io_bytes_per_campaign, "B");
  r.metric("paper.des.events_per_campaign", l.paper_des_events_per_campaign,
           "count");
  r.metric("paper.net.messages_per_campaign", l.paper_net_messages_per_campaign,
           "count");
  r.metric("paper.net.flows_per_campaign", l.paper_net_flows_per_campaign,
           "count");
  r.metric("trace.overhead_pct", l.trace_overhead_pct, "%");
}

}  // namespace perfbench
