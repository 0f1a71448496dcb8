// bench_des — DES kernel & message-path throughput (BENCH_des.json).
//
// Every scaling result in the ROADMAP (MA federation, thousands of
// concurrent clients, contention-aware networking) rides on the DES
// engine's event throughput; this bench pins it down with three workloads:
//
//   phold      PHOLD-style self-driving event population: a fixed budget of
//              events, each firing reschedules one successor at
//              now + Exp(1), and every 4th firing re-arms a far-future
//              watchdog after cancelling the previous one (the diet
//              heartbeat/timeout pattern, so the cancel path is priced in).
//              Runs on BOTH the optimized engine and the frozen naive
//              reference (src/des/reference.hpp), so the phold before/after
//              is measured live in the same binary.
//
//   pingstorm  Request/reply message storm through SimEnv over a
//              1 MA / 4 LA / 64 SED topology: every SED ping-pongs its LA
//              and every LA ping-pongs the MA, exercising the per-stream
//              FIFO clock, byte accounting, and delivery-event path.
//
//   pingstorm_sampled
//              The same storm with the obs::TimeSeries sampler ticking on
//              a recurring virtual-time event. The two storm lanes run as
//              kStormPairs alternating (unsampled, sampled) pairs, quick
//              and full alike; each lane reports its median, and this
//              lane's "before" is the unsampled median and its speedup the
//              median of the per-pair ratios — the sampler overhead
//              (budget: < 5%), robust to load that hits one run of a pair.
//
//   campaign22 The 22-sub-sim zoom campaign replay (the paper's Section 5
//              experiment at bench scale), events counted via the
//              des_events_executed_total metric.
//
// Output: events/sec per workload, printed and written to --json
// (default BENCH_des.json) with before/after numbers. "Before" for
// pingstorm/campaign22 is the recorded pre-PR measurement in this
// container (see EXPERIMENTS.md, "DES kernel throughput"); for phold it is
// the live reference-engine run.
//
//   bench_des                      # full sizes, writes BENCH_des.json
//   bench_des --quick              # CI smoke sizes
//   bench_des --quick --floor 250000   # exit 1 if phold drops below floor
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "des/engine.hpp"
#include "des/reference.hpp"
#include "net/env.hpp"
#include "net/simenv.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "workflow/campaign.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Alternating (unsampled, sampled) pingstorm pairs per bench run.
constexpr int kStormPairs = 5;

/// Middle value of an odd-sized sample.
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Pre-PR throughput of this same bench in this container (1 CPU,
// RelWithDebInfo, GC_CHECK=ON): median of three back-to-back runs of this
// exact harness built against the pre-rewrite engine/simenv, interleaved
// with the post-rewrite runs so both sides saw the same machine load.
// Methodology and the matching table live in EXPERIMENTS.md.
constexpr double kRecordedPrePr[3] = {
    2466107.0,  // phold      (also measured live via ReferenceEngine)
    1276003.0,  // pingstorm
    197638.0,   // campaign22 (dominated by campaign setup, not the kernel;
                //             run-to-run spread is ~±20% either side)
};

// ---------------------------------------------------------------------------
// phold

template <typename EngineT>
struct PholdCtx {
  EngineT engine;
  gc::Rng rng{7};
  std::uint64_t remaining = 0;  ///< successors still to be scheduled
  std::uint64_t fired = 0;
  std::uint64_t watchdog = 0;  ///< pending far-future timer, 0 = none
  std::uint64_t cancels = 0;
};

template <typename EngineT>
struct PholdEvent {
  PholdCtx<EngineT>* c;
  void operator()() {
    PholdCtx<EngineT>& ctx = *c;
    ++ctx.fired;
    if (ctx.remaining == 0) return;
    --ctx.remaining;
    ctx.engine.schedule_after(ctx.rng.exponential(1.0), PholdEvent<EngineT>{c});
    if ((ctx.fired & 3u) == 0) {
      // Heartbeat pattern: re-arm a watchdog far in the future; the
      // previous one is cancelled and must not rot in the calendar.
      if (ctx.watchdog != 0 && ctx.engine.cancel(ctx.watchdog)) ++ctx.cancels;
      ctx.watchdog = ctx.engine.schedule_after(1e9, PholdEvent<EngineT>{c});
    }
  }
};

/// Runs PHOLD with `population` events in flight and ~`budget` total
/// firings; returns events/sec (cancellations included in the work, not in
/// the numerator).
template <typename EngineT>
double phold_rate(std::uint64_t budget, int population) {
  PholdCtx<EngineT> ctx;
  ctx.remaining = budget > static_cast<std::uint64_t>(population)
                      ? budget - static_cast<std::uint64_t>(population)
                      : 0;
  for (int i = 0; i < population; ++i) {
    ctx.engine.schedule_after(ctx.rng.exponential(1.0),
                              PholdEvent<EngineT>{&ctx});
  }
  const auto t0 = Clock::now();
  ctx.engine.run();
  const double dt = elapsed_s(t0);
  return static_cast<double>(ctx.engine.events_executed()) / dt;
}

// ---------------------------------------------------------------------------
// pingstorm

struct StormActor final : gc::net::Actor {
  gc::net::Endpoint parent = gc::net::kNullEndpoint;  ///< 0: pure echoer
  int remaining = 0;  ///< pings this actor will still send

  void on_message(const gc::net::Envelope& e) override {
    if (e.type == 1) {  // ping from a child: echo a pong
      gc::net::Envelope r;
      r.from = endpoint();
      r.to = e.from;
      r.type = 2;
      env()->send(r);
      return;
    }
    send_next();  // pong from the parent: fire the next ping
  }

  void send_next() {
    if (remaining <= 0) return;
    --remaining;
    gc::net::Envelope p;
    p.from = endpoint();
    p.to = parent;
    p.type = 1;
    env()->send(p);
  }
};

/// 1 MA / 4 LA / 64 SED ping-pong storm; returns events/sec and fills
/// messages with the wire-message count. Runs with metrics enabled — the
/// production configuration — so the per-link counter path is priced in.
/// With `sampled` set, the obs::TimeSeries sampler additionally snapshots
/// the registry from a recurring virtual-time event (the zoom_campaign
/// --timeseries configuration) — the delta against the unsampled lane is
/// the sampler's whole cost.
double pingstorm_rate(int rounds, std::uint64_t* messages,
                      bool sampled = false) {
  auto& metrics = gc::obs::Metrics::instance();
  const bool was_on = metrics.enabled();
  metrics.reset();
  metrics.set_enabled(true);
  auto& series = gc::obs::TimeSeries::instance();
  if (sampled) {
    series.clear();
    series.set_interval(0.05);  // many ticks across the storm's ~virtual-min
    series.set_enabled(true);
  }
  gc::des::Engine engine;
  gc::net::UniformTopology topology(5e-4, 1.25e8);
  gc::net::SimEnv env(engine, topology);

  constexpr int kLas = 4;
  constexpr int kSeds = 64;
  StormActor ma;
  StormActor las[kLas];
  StormActor seds[kSeds];
  env.attach(ma, 0);
  for (int i = 0; i < kLas; ++i) {
    env.attach(las[i], static_cast<gc::net::NodeId>(1 + i));
    las[i].parent = ma.endpoint();
    las[i].remaining = rounds;
  }
  for (int i = 0; i < kSeds; ++i) {
    env.attach(seds[i], static_cast<gc::net::NodeId>(1 + kLas + i));
    seds[i].parent = las[i / (kSeds / kLas)].endpoint();
    seds[i].remaining = rounds;
  }
  for (int i = 0; i < kLas; ++i) {
    engine.schedule_at(0.0, [&las, i] { las[i].send_next(); });
  }
  for (int i = 0; i < kSeds; ++i) {
    engine.schedule_at(0.0, [&seds, i] { seds[i].send_next(); });
  }
  std::function<void()> sampler_tick;
  if (sampled) {
    sampler_tick = [&engine, &sampler_tick, &series]() {
      engine.publish_tag_metrics();
      series.sample(engine.now());
      if (engine.events_pending() > 0) {
        engine.schedule_after(series.interval(),
                              [&sampler_tick]() { sampler_tick(); },
                              gc::des::EventTag::kSampler);
      }
    };
    engine.schedule_after(series.interval(),
                          [&sampler_tick]() { sampler_tick(); },
                          gc::des::EventTag::kSampler);
  }

  const auto t0 = Clock::now();
  engine.run();
  const double dt = elapsed_s(t0);
  metrics.set_enabled(was_on);
  if (sampled) {
    series.set_enabled(false);
    series.clear();
  }
  *messages = env.messages_sent();
  return static_cast<double>(engine.events_executed()) / dt;
}

// ---------------------------------------------------------------------------
// campaign22

/// The zoom campaign replay, repeated `reps` times for a stable wall-time
/// denominator; events counted via the metrics registry
/// (des_events_executed_total), which each campaign engine bumps per event.
double campaign_rate(int sub_sims, int reps, std::uint64_t* events) {
  auto& metrics = gc::obs::Metrics::instance();
  const bool was_on = metrics.enabled();
  metrics.reset();
  metrics.set_enabled(true);

  const auto t0 = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    gc::workflow::CampaignConfig config;
    config.sub_simulations = sub_sims;
    config.seed = 11;
    const gc::workflow::CampaignResult result =
        gc::workflow::run_grid5000_campaign(config);
    if (result.failed_calls != 0) {
      std::fprintf(stderr, "campaign22: unexpected failed calls\n");
    }
  }
  const double dt = elapsed_s(t0);

  *events = metrics.counter("des_events_executed_total").value();
  metrics.set_enabled(was_on);
  return static_cast<double>(*events) / dt;
}

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const bool quick = args.has("quick");
  const double floor = args.get_double("floor", 0.0);
  const std::string json_path = args.get("json", "BENCH_des.json");

  const std::uint64_t phold_budget = quick ? 300000 : 3000000;
  const int phold_population = static_cast<int>(args.get_int("population", 4096));
  const int storm_rounds = quick ? 150 : 3000;
  const int sub_sims = quick ? 6 : 22;
  const int campaign_reps = quick ? 2 : 40;

  std::printf("bench_des (%s): phold %llu events / storm %d rounds / "
              "campaign %d sub-sims\n\n",
              quick ? "quick" : "full",
              static_cast<unsigned long long>(phold_budget), storm_rounds,
              sub_sims);

  // phold: reference lane first so the optimized lane runs on a warm heap.
  const double phold_ref =
      phold_rate<gc::des::ReferenceEngine>(phold_budget, phold_population);
  const double phold_opt =
      phold_rate<gc::des::Engine>(phold_budget, phold_population);
  std::printf("%-11s %12.0f ev/s   (reference %12.0f ev/s, %.2fx)\n", "phold",
              phold_opt, phold_ref, phold_opt / phold_ref);

  // The storm with and without the time-series sampler, alternated so a
  // burst of outside load lands on both lanes of a pair alike; the median
  // of the per-pair ratios is the sampler's events/sec cost — budgeted at
  // < 5%.
  std::uint64_t storm_messages = 0;
  std::uint64_t sampled_messages = 0;
  std::vector<double> storm_runs;
  std::vector<double> sampled_runs;
  std::vector<double> pair_ratios;
  for (int pair = 0; pair < kStormPairs; ++pair) {
    storm_runs.push_back(pingstorm_rate(storm_rounds, &storm_messages));
    sampled_runs.push_back(
        pingstorm_rate(storm_rounds, &sampled_messages, /*sampled=*/true));
    pair_ratios.push_back(sampled_runs.back() / storm_runs.back());
  }
  const double storm = median(storm_runs);
  const double storm_sampled = median(sampled_runs);
  const double sampler_ratio = median(pair_ratios);
  std::printf("%-11s %12.0f ev/s   (%llu messages, median of %d)\n",
              "pingstorm", storm,
              static_cast<unsigned long long>(storm_messages), kStormPairs);
  std::printf("%-11s %12.0f ev/s   (sampler on, median of %d; median pair "
              "ratio %.1f%% of unsampled)\n",
              "pingstorm+ts", storm_sampled, kStormPairs,
              100.0 * sampler_ratio);

  std::uint64_t campaign_events = 0;
  const double campaign =
      campaign_rate(sub_sims, campaign_reps, &campaign_events);
  std::printf("%-11s %12.0f ev/s   (%llu events)\n", "campaign22", campaign,
              static_cast<unsigned long long>(campaign_events));

  std::ofstream json(json_path, std::ios::trunc);
  json << "{\n  \"bench\": \"bench_des\",\n  \"quick\": "
       << (quick ? "true" : "false") << ",\n  \"workloads\": [\n";
  const char* names[4] = {"phold", "pingstorm", "pingstorm_sampled",
                          "campaign22"};
  const double after[4] = {phold_opt, storm, storm_sampled, campaign};
  const double before[4] = {phold_ref, kRecordedPrePr[1], storm,
                            kRecordedPrePr[2]};
  const char* before_src[4] = {"reference engine, live",
                               "recorded pre-PR, this container",
                               "pingstorm lane (sampler off), same run; "
                               "speedup is the median pair ratio",
                               "recorded pre-PR, this container"};
  const double speedup[4] = {phold_opt / phold_ref,
                             storm / kRecordedPrePr[1], sampler_ratio,
                             campaign / kRecordedPrePr[2]};
  for (int i = 0; i < 4; ++i) {
    json << "    {\"name\": \"" << names[i] << "\", \"events_per_sec\": "
         << static_cast<std::uint64_t>(after[i])
         << ", \"before_events_per_sec\": "
         << static_cast<std::uint64_t>(before[i]) << ", \"before_source\": \""
         << before_src[i] << "\", \"speedup\": ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", speedup[i]);
    json << buf << "}" << (i + 1 < 4 ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("\nwrote %s\n", json_path.c_str());

  if (floor > 0.0 && phold_opt < floor) {
    std::fprintf(stderr,
                 "FAIL: phold %.0f ev/s below floor %.0f ev/s "
                 "(10x-regression guard)\n",
                 phold_opt, floor);
    return 1;
  }
  return 0;
}
