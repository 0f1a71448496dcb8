#include "rounds.hpp"

#include <string>

#include "diet/protocol.hpp"

namespace perfbench {

namespace {

double per(double count, double base) { return base > 0.0 ? count / base : 0.0; }

std::vector<double> each(const std::vector<const RoundCore*>& rounds,
                         double (*field)(const RoundCore&)) {
  std::vector<double> v;
  v.reserve(rounds.size());
  for (const RoundCore* r : rounds) v.push_back(field(*r));
  return v;
}

}  // namespace

Gate rounds_agree_gate(const std::string& name,
                       const std::vector<const RoundCore*>& rounds) {
  if (rounds.empty()) return {name, false, "no rounds"};
  const RoundCore& first = *rounds.front();
  bool agree = true;
  for (const RoundCore* r : rounds) {
    agree = agree && r->state_hash == first.state_hash &&
            r->science_digest == first.science_digest;
  }
  return {name, agree,
          std::to_string(rounds.size()) + " rounds, state " +
              hex64(first.state_hash) + ", science " +
              hex64(first.science_digest)};
}

void add_round_gates(Result& result, const RunRounds& rounds, bool trace) {
  std::vector<const RoundCore*> all = rounds.plain;
  all.insert(all.end(), rounds.traced.begin(), rounds.traced.end());
  for (const RoundCore* r : all) {
    result.attempted += r->calls;
    result.failed += r->failed;
  }
  result.gate("zero_failed_calls", result.failed == 0,
              std::to_string(result.failed) + " of " +
                  std::to_string(result.attempted) + " calls failed");
  result.gates.push_back(rounds_agree_gate(
      trace ? "traced_rounds_reproduce_hashes" : "rounds_reproduce_hashes",
      all));
}

void add_run_metrics(Result& result, const RunRounds& rounds) {
  const RoundCore& first = *rounds.plain.front();
  const std::vector<double> rate = each(rounds.plain, [](const RoundCore& r) {
    return static_cast<double>(r.ok) / r.run_s;
  });
  const double tail_q = tail_quantile(first.latency.size());
  EndToEnd e2e;
  e2e.setup_s = setup_time(rounds.setup_s);
  e2e.calls_per_host_s = host_rate(rate);
  e2e.peak_rss_mb = peak_rss_mib();
  e2e.finding_ms = first.finding_mean * 1e3;
  e2e.sim_latency_p50_s = rank_quantile(first.latency, 0.5);
  e2e.sim_latency_tail_s = rank_quantile(first.latency, tail_q);
  e2e.makespan_s = first.makespan;
  e2e.sim_throughput_rps = static_cast<double>(first.ok) / first.makespan;
  add_end_to_end(result, e2e);
  add_host_extras(result, rate, rounds.setup_s);
  result.extra("rounds", static_cast<double>(rounds.plain.size()), "count");
  result.extra("setup_samples", static_cast<double>(rounds.setup_s.size()),
               "count");
  result.extra("latency_samples", static_cast<double>(first.latency.size()),
               "count");
  result.extra("sim_latency_tail_quantile", tail_q, "quantile");
  result.extra("failed_call_ratio",
               per(static_cast<double>(result.failed),
                   static_cast<double>(result.attempted)),
               "ratio");
}

Layers shared_layers(Result& result, const RunRounds& rounds) {
  using gc::des::EventTag;
  const RoundCore& tr = *rounds.traced.front();
  const auto tag = [](EventTag t) { return static_cast<std::size_t>(t); };
  const auto traced_median = [&](double (*field)(const RoundCore&)) {
    return median(each(rounds.traced, field));
  };
  const double calls = static_cast<double>(tr.calls);
  const auto events = [&](EventTag t) {
    return per(static_cast<double>(tr.steps.events[tag(t)]), calls);
  };
  Layers l;
  l.des_events_per_request = per(static_cast<double>(tr.events), calls);
  l.des_timer_events_per_request = events(EventTag::kTimer);
  l.des_execute_events_per_request = events(EventTag::kExecute);
  l.des_timer_busy_s = traced_median([](const RoundCore& r) {
    return r.steps.busy_s[static_cast<std::size_t>(EventTag::kTimer)];
  });
  l.des_message_busy_s = traced_median([](const RoundCore& r) {
    return r.steps.busy_s[static_cast<std::size_t>(EventTag::kMessage)];
  });
  l.des_execute_busy_s = traced_median([](const RoundCore& r) {
    return r.steps.busy_s[static_cast<std::size_t>(EventTag::kExecute)];
  });
  l.des_queue_depth_max = static_cast<double>(tr.queue_depth_max);
  l.net_messages_per_request =
      per(static_cast<double>(tr.census.messages()), calls);
  l.net_bytes_per_request = per(static_cast<double>(tr.census.bytes()), calls);
  l.net_collect_per_request = per(
      static_cast<double>(tr.census.of_type(gc::diet::kRequestCollect)), calls);
  l.net_candidates_per_request = per(
      static_cast<double>(tr.census.of_type(gc::diet::kCandidates)), calls);
  l.sched_rank_calls_per_request =
      per(static_cast<double>(tr.rank.calls), calls);
  l.sched_candidates_per_rank = per(static_cast<double>(tr.rank.candidates),
                                    static_cast<double>(tr.rank.calls));
  l.sched_rank_busy_s =
      traced_median([](const RoundCore& r) { return r.rank.busy_s; });
  l.diet_finding_s_p99 = rank_quantile(tr.finding, 0.99);
  l.diet_queue_s_p99 = rank_quantile(tr.queue, 0.99);
  l.diet_exec_return_s_p99 = rank_quantile(tr.exec_return, 0.99);
  l.platform_build_s =
      traced_median([](const RoundCore& r) { return r.platform_s; });
  l.diet_deploy_s = traced_median([](const RoundCore& r) { return r.deploy_s; });
  l.diet_register_s =
      traced_median([](const RoundCore& r) { return r.register_s; });

  l.workflow_middleware_s = traced_median([](const RoundCore& r) {
    return r.run_s -
           r.steps.busy_s[static_cast<std::size_t>(EventTag::kExecute)];
  });
  const auto run_s = [](const RoundCore& r) { return r.run_s; };
  const double untraced = median(each(rounds.plain, run_s));
  const double traced = traced_median(run_s);
  l.trace_overhead_pct = (traced / untraced - 1.0) * 100.0;
  result.extra("traced_rounds", static_cast<double>(rounds.traced.size()),
               "count");
  result.extra("untraced_run_s", untraced, "s");
  result.extra("traced_run_s", traced, "s");
  return l;
}

}  // namespace perfbench
