#include "workflow/campaign.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>

#include "check/statehash.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "des/engine.hpp"
#include "fault/injector.hpp"
#include "halo/halomaker.hpp"
#include "naming/registry.hpp"
#include "net/simenv.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "ramses/simulation.hpp"

namespace gc::workflow {

namespace {

/// One successful zoom2 call's science: centre, zoom depth, return code.
using ScienceTuple = std::array<std::int64_t, 5>;

/// FNV-1a over the sorted tuples — independent of completion order,
/// scheduling, and which attempt of a retried call finally landed.
std::uint64_t science_digest_of(std::vector<ScienceTuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  check::Fnv h{0xcbf29ce484222325ULL};  // the canonical FNV-1a offset
  for (const ScienceTuple& tuple : tuples) {
    for (std::int64_t value : tuple) h.i64(value);
  }
  return h.h;
}

/// Splits a single-hierarchy spec into `mas` federation shards: LAs (and
/// their SEDs) round-robin, every shard MA on the original MA's node.
/// All shards offer the same services, so the on-miss forwarding default
/// would never leave the local shard — shards run federate_always (a
/// no-op for the lone shard of mas = 1, which has no peers).
std::vector<diet::DeploymentSpec> split_for_federation(
    const diet::DeploymentSpec& spec, int mas) {
  GC_CHECK_MSG(mas >= 1 && static_cast<std::size_t>(mas) <= spec.las.size(),
               "federation_mas must be in [1, LA count]");
  std::vector<diet::DeploymentSpec> shards(static_cast<std::size_t>(mas));
  for (int s = 0; s < mas; ++s) {
    diet::DeploymentSpec& shard = shards[static_cast<std::size_t>(s)];
    shard.ma_name = "MA" + std::to_string(s + 1);
    shard.ma_node = spec.ma_node;
    shard.policy = spec.policy;
    shard.agent_tuning = spec.agent_tuning;
    shard.agent_tuning.federate_always = true;
    shard.sed_tuning = spec.sed_tuning;
    shard.seed = spec.seed + 1000003ULL * static_cast<std::uint64_t>(s);
  }
  for (std::size_t i = 0; i < spec.las.size(); ++i) {
    diet::DeploymentSpec& shard = shards[i % static_cast<std::size_t>(mas)];
    diet::DeploymentSpec::LaSpec la = spec.las[i];
    std::vector<int> remapped;
    remapped.reserve(la.sed_indexes.size());
    for (const int idx : la.sed_indexes) {
      remapped.push_back(static_cast<int>(shard.seds.size()));
      shard.seds.push_back(spec.seds.at(static_cast<std::size_t>(idx)));
    }
    la.sed_indexes = std::move(remapped);
    shard.las.push_back(std::move(la));
  }
  return shards;
}

}  // namespace

diet::DeploymentSpec deployment_spec_from_g5k(
    const platform::G5kDeployment& g5k, const CampaignConfig& config) {
  diet::DeploymentSpec spec;
  spec.ma_name = "MA1";
  spec.ma_node = g5k.ma_node;
  spec.policy = config.policy;
  spec.agent_tuning = config.agent_tuning;
  spec.sed_tuning = config.sed_tuning;
  spec.seed = config.seed;

  for (const platform::SedPlacement& sed : g5k.seds) {
    diet::DeploymentSpec::SedSpec s;
    s.name = sed.name;
    s.node = sed.frontal;
    s.host_power = g5k.platform.cluster(sed.cluster).model.relative_power;
    s.machines = sed.machines;
    spec.seds.push_back(std::move(s));
  }
  for (const platform::LaPlacement& la : g5k.las) {
    diet::DeploymentSpec::LaSpec l;
    l.name = la.name;
    l.node = la.node;
    l.sed_indexes = la.sed_indexes;
    spec.las.push_back(std::move(l));
  }
  return spec;
}

CampaignResult run_grid5000_campaign(const CampaignConfig& config) {
  // Chaos runs work on a local copy: the plan's tolerance knobs become
  // the deployment's tunings, so "--fault-plan mixed" is one switch. The
  // fault-free path copies the config untouched and takes the exact
  // pre-fault code path everywhere below.
  fault::FaultPlan plan;
  if (!config.fault_plan.empty()) {
    auto parsed = fault::parse_plan(config.fault_plan);
    GC_CHECK_MSG(parsed.is_ok(),
                 "bad fault plan: " + parsed.status().to_string());
    plan = parsed.value();
  }
  CampaignConfig cfg = config;
  if (plan.active) {
    cfg.sed_tuning.heartbeat_period = plan.heartbeat_period_s;
    cfg.agent_tuning.heartbeat_period = plan.heartbeat_period_s;
    cfg.agent_tuning.heartbeat_timeout = plan.heartbeat_timeout_s;
    // The heartbeat watchdog owns liveness under chaos; strike eviction
    // would erase a child for good over what may be dropped messages.
    cfg.agent_tuning.max_child_timeouts = 0;
    // Campaign-level rescue on top of the client's own attempts: a call
    // that burned its whole attempt budget is resubmitted from scratch.
    if (cfg.max_retries == 0) cfg.max_retries = 3;
  }
  if (cfg.replicas > 1) {
    cfg.sed_tuning.replication_factor = cfg.replicas;
  }
  // WAN-engine knobs reach the SEDs through their tuning; only non-default
  // values are applied so a caller-set sed_tuning.wan survives.
  if (cfg.wan_streams > 1) cfg.sed_tuning.wan.streams = cfg.wan_streams;
  if (cfg.wan_relay) cfg.sed_tuning.wan.relay = true;
  if (cfg.wan_compression > 0.0) {
    cfg.sed_tuning.wan.compression = cfg.wan_compression;
    cfg.sed_tuning.wan.compress_bps = cfg.wan_compress_bps;
  }

  platform::G5kOptions g5k_options;
  g5k_options.wan_bandwidth_scale = cfg.wan_bandwidth_scale;
  g5k_options.wan_per_stream_bps = cfg.wan_per_stream_bps;
  platform::G5kDeployment g5k =
      platform::make_grid5000(cfg.machines_per_sed, g5k_options);

  des::Engine engine;
  engine.set_tie_break_seed(cfg.tie_break_seed);
  net::SimEnv env(engine, g5k.platform);
  if (cfg.contention) env.enable_contention();
  naming::Registry registry;

  std::unique_ptr<fault::Injector> injector;
  if (plan.active) {
    injector = std::make_unique<fault::Injector>(plan, cfg.fault_seed);
    env.set_fault_hook(injector.get());
  }

  ServiceOptions service_options = cfg.services;
  service_options.work_dir += "/campaign_" + std::to_string(cfg.seed);
  diet::ServiceTable services;
  GC_CHECK(register_services(services, service_options).is_ok());

  diet::Federation federation(
      env, registry, services,
      split_for_federation(deployment_spec_from_g5k(g5k, cfg),
                           cfg.federation_mas));
  if (cfg.policy_factory) {
    federation.ma(0).set_policy(cfg.policy_factory());
  }

  diet::Client::Tuning client_tuning;
  if (plan.active) {
    client_tuning.max_attempts = plan.max_attempts;
    client_tuning.attempt_timeout_s = plan.attempt_timeout_s;
    client_tuning.backoff_base_s = plan.backoff_base_s;
    client_tuning.backoff_mult = plan.backoff_mult;
  }
  diet::Client client("client", client_tuning);
  env.attach(client, g5k.client_node);
  auto ma = registry.resolve("MA1");
  GC_CHECK(ma.is_ok());
  client.connect(ma.value());

  // Let registration settle before the campaign starts.
  engine.run_until(engine.now() + 2.0);

  // The namelist the client ships (IN argument 0 of both services).
  std::error_code ec;
  std::filesystem::create_directories(service_options.work_dir, ec);
  const std::string namelist_path = service_options.work_dir + "/zoom.nml";
  {
    ramses::RunParams params;
    params.npart_dim = cfg.resolution;
    params.box_mpc = cfg.size_mpc;
    std::ofstream out(namelist_path);
    out << params.to_namelist();
  }

  CampaignResult result;
  std::size_t completed = 0;
  bool zoom1_done = false;

  // Process faults: the scripted ones first, then the plan's schedule
  // (crashes, restarts, LA deaths, link partitions at virtual times drawn
  // in materialize()).
  std::vector<fault::ProcessFault> faults = cfg.process_faults;
  if (plan.active) {
    const auto schedule =
        fault::materialize(plan, static_cast<int>(federation.sed_count()),
                           static_cast<int>(federation.la_count()),
                           cfg.fault_seed);
    faults.insert(faults.end(), schedule.begin(), schedule.end());
  }
  for (const fault::ProcessFault& f : faults) {
    using Kind = fault::ProcessFault::Kind;
    result.sed_crashes += f.kind == Kind::kSedCrash ? 1 : 0;
    result.sed_restarts += f.kind == Kind::kSedRestart ? 1 : 0;
    result.la_deaths += f.kind == Kind::kLaDeath ? 1 : 0;
    result.sed_isolations += f.kind == Kind::kSedIsolate ? 1 : 0;
  }
  federation.arm_faults(faults, injector.get());

  // Part 2: issued all at once when part 1 completes; failed calls are
  // resubmitted up to cfg.max_retries times each.
  // Retry closures live on the stack and capture themselves by reference:
  // the engine drains before this scope exits, so no callback can outlive
  // them, and (unlike a shared_ptr captured by its own target) nothing
  // cycles or leaks.
  std::vector<ScienceTuple> science;
  std::function<void(const halo::Halo&, int)> submit_one;
  submit_one = [&](const halo::Halo& halo, int retries_left) {
    const int cx = static_cast<int>(halo.x * cfg.resolution);
    const int cy = static_cast<int>(halo.y * cfg.resolution);
    const int cz = static_cast<int>(halo.z * cfg.resolution);
    diet::Profile profile = make_zoom2_profile(
        namelist_path, cfg.shipped_input_bytes, cfg.resolution,
        cfg.size_mpc, cx, cy, cz, cfg.nb_box, cfg.input_mode);
    client.call_async(
        std::move(profile),
        [&, halo, retries_left, cx, cy, cz](
            const gc::Status& status, diet::Profile& out_profile) {
          if (status.is_ok()) {
            auto rc = out_profile.arg(8).get_scalar<std::int32_t>();
            science.push_back({cx, cy, cz, cfg.nb_box,
                               rc.is_ok() ? rc.value() : -1});
            ++completed;
            return;
          }
          if (retries_left > 0) {
            ++result.resubmissions;
            submit_one(halo, retries_left - 1);
            return;
          }
          ++result.failed_calls;
          ++completed;
        },
        cfg.call_deadline_s);
  };

  auto submit_zoom2 = [&](const std::string& catalog_path) {
    auto catalog = halo::read_catalog(catalog_path);
    std::vector<halo::Halo> halos;
    if (catalog.is_ok()) halos = std::move(catalog.value().halos);
    GC_CHECK_MSG(!halos.empty(), "zoom1 produced no halos");
    for (int i = 0; i < cfg.sub_simulations; ++i) {
      submit_one(halos[static_cast<std::size_t>(i) % halos.size()],
                 cfg.max_retries);
    }
  };

  // Part 1; under a fault plan the whole call is resubmitted when even the
  // client's own attempt budget was not enough (zoom1 is the campaign's
  // single point of failure, so it gets the same rescue as zoom2 calls).
  std::function<void(int)> submit_zoom1;
  submit_zoom1 = [&](int retries_left) {
    diet::Profile zoom1 =
        make_zoom1_profile(namelist_path, cfg.shipped_input_bytes,
                           cfg.resolution, cfg.size_mpc, cfg.input_mode);
    client.call_async(
        std::move(zoom1),
        [&, retries_left](const gc::Status& status,
                          diet::Profile& profile) {
          if (!status.is_ok() && retries_left > 0) {
            ++result.resubmissions;
            submit_zoom1(retries_left - 1);
            return;
          }
          zoom1_done = true;
          GC_CHECK_MSG(status.is_ok(), "zoom1 failed: " + status.to_string());
          auto file = profile.arg(3).get_file();
          GC_CHECK(file.is_ok());
          submit_zoom2(file.value().path);
        });
  };
  submit_zoom1(plan.active ? cfg.max_retries : 0);

  // Time-series sampler: a self-rearming virtual-time tick snapshotting
  // the metrics registry every interval() sim-seconds. It rearms only
  // while *other* work is pending, so the calendar still drains and
  // engine.run() terminates; sampling never perturbs the simulation — it
  // only reads. Lives on the stack (events capture it by reference), so
  // nothing leaks when the plan.active loop exits with a tick pending.
  std::function<void()> sampler_tick;
  if (obs::timeseries_on()) {
    sampler_tick = [&engine, &sampler_tick]() {
      auto& ts = obs::TimeSeries::instance();
      engine.publish_tag_metrics();
      ts.sample(engine.now());
      if (engine.events_pending() > 0) {
        engine.schedule_after(ts.interval(),
                              [&sampler_tick]() { sampler_tick(); },
                              des::EventTag::kSampler);
      }
    };
    engine.publish_tag_metrics();
    obs::TimeSeries::instance().sample(engine.now());  // anchor sample
    engine.schedule_after(obs::TimeSeries::instance().interval(),
                          [&sampler_tick]() { sampler_tick(); },
                          des::EventTag::kSampler);
  }

  if (plan.active) {
    // Heartbeat loops re-arm themselves forever, so the calendar never
    // drains under a plan; step until the campaign itself is done.
    while (engine.step()) {
      if (zoom1_done &&
          completed == static_cast<std::size_t>(cfg.sub_simulations)) {
        break;
      }
    }
  } else {
    engine.run();
  }
  GC_CHECK_MSG(zoom1_done, "zoom1 never completed");
  GC_CHECK_MSG(completed == static_cast<std::size_t>(cfg.sub_simulations),
               "campaign did not finish all sub-simulations");

  // ---- metrics ----
  const auto& records = client.records();
  GC_CHECK(records.size() >=
           1 + static_cast<std::size_t>(cfg.sub_simulations));
  // Split by service (a chaos run may resubmit zoom1, so position 0 is
  // not guaranteed); the last zoom1 attempt is the one that fed part 2.
  result.zoom1 = records[0];
  for (const auto& record : records) {
    if (record.service == "ramsesZoom1") {
      result.zoom1 = record;
    } else {
      result.zoom2.push_back(record);
    }
  }

  result.part1_duration = result.zoom1.total_time();

  RunningStats exec_stats;
  RunningStats finding_stats;
  double first_submit = result.zoom1.submitted;
  double last_completed = result.zoom1.completed;
  double sequential = 0.0;

  for (std::size_t i = 0; i < federation.sed_count(); ++i) {
    const diet::Sed& sed = federation.sed(i);
    SedSummary summary;
    summary.name = sed.name();
    const platform::SedPlacement& placement = g5k.seds[i];
    const platform::Cluster& cluster = g5k.platform.cluster(placement.cluster);
    summary.cluster = cluster.name;
    summary.site = g5k.platform.site(cluster.site).name;
    summary.machine_power = cluster.model.relative_power;
    summary.jobs = sed.job_log();
    for (const auto& job : summary.jobs) {
      if (job.service == "ramsesZoom2") {
        summary.requests += 1;
        summary.busy_seconds += job.finished - job.started;
      }
      sequential += job.finished - job.started;
    }
    result.seds.push_back(std::move(summary));
  }

  for (const auto& record : result.zoom2) {
    if (record.found >= 0.0) finding_stats.add(record.finding_time());
    if (record.ok && record.started >= 0.0 && record.completed >= 0.0) {
      exec_stats.add(record.completed - record.started);
    }
    last_completed = std::max(last_completed, record.completed);
    first_submit = std::min(first_submit, record.submitted);
  }
  finding_stats.add(result.zoom1.finding_time());

  result.part2_mean_exec = exec_stats.mean();
  result.makespan = last_completed - first_submit;
  result.sequential_estimate = sequential;
  result.finding_mean = finding_stats.mean();
  // Overhead per the paper: finding time + service initiation, everything
  // else being either payload transfer or computation.
  result.overhead_total =
      finding_stats.sum() +
      cfg.sed_tuning.init_delay *
          static_cast<double>(cfg.sub_simulations + 1);
  result.network_bytes = env.bytes_sent();
  result.network_messages = env.messages_sent();
  if (const net::FlowModel* flow = env.flow_model()) {
    result.flows_completed = flow->flows_completed();
    result.peak_active_flows = flow->peak_active_flows();
  }
  for (const auto& [pair, bytes] : env.bytes_by_node_pair()) {
    if (g5k.platform.node(pair.first).site !=
        g5k.platform.node(pair.second).site) {
      result.wan_bytes += bytes;
    }
  }
  result.science_digest = science_digest_of(std::move(science));

  if (injector) {
    result.messages_dropped = injector->stats().dropped.load();
    result.messages_duplicated = injector->stats().duplicated.load();
    result.messages_delayed = injector->stats().delayed.load();
  }
  for (std::size_t s = 0; s < federation.shard_count(); ++s) {
    diet::Agent& ma = federation.ma(s);
    result.heartbeat_evictions += ma.heartbeat_evictions();
    result.federation_forwards += ma.peer_stats().forwards;
    result.federation_replies += ma.peer_stats().replies;
  }
  for (std::size_t i = 0; i < federation.la_count(); ++i) {
    result.heartbeat_evictions += federation.la(i).heartbeat_evictions();
  }

  // Campaign phases as spans (timestamps reconstructed from the records,
  // all in the engine's virtual time) + summary histograms.
  if (obs::tracing()) {
    auto& tracer = obs::Tracer::instance();
    tracer.complete_span(first_submit, last_completed - first_submit,
                         "campaign", "campaign");
    tracer.complete_span(result.zoom1.submitted, result.zoom1.total_time(),
                         "part1:ramsesZoom1", "campaign");
    if (!result.zoom2.empty()) {
      const double part2_start = result.zoom2.front().submitted;
      tracer.complete_span(part2_start, last_completed - part2_start,
                           "part2:ramsesZoom2", "campaign");
    }
  }
  if (obs::metrics_on()) {
    auto& m = obs::Metrics::instance();
    m.histogram("campaign_makespan_seconds", obs::duration_buckets_s())
        .observe(result.makespan);
    m.gauge("campaign_finding_time_mean_seconds").set(result.finding_mean);
    m.gauge("campaign_overhead_seconds").set(result.overhead_total);
  }
  if (obs::timeseries_on()) {
    // Closing sample so the series always covers the full campaign even
    // when the run ends between ticks — includes the summary gauges above.
    engine.publish_tag_metrics();
    obs::TimeSeries::instance().sample(engine.now());
  }
  return result;
}

}  // namespace gc::workflow
