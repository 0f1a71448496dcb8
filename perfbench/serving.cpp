// serving_broadcast: the fat-tree serving world of loadgen::run_serving,
// rebuilt here so its set-up and timed phases can be timed apart and the
// tracing seams installed. The world must stay a faithful copy: every run
// compares its science digest and state hash with run_serving's own.
#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "des/engine.hpp"
#include "diet/client.hpp"
#include "diet/deployment.hpp"
#include "naming/registry.hpp"
#include "net/simenv.hpp"
#include "obs/journal.hpp"
#include "rounds.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// 200 calls per round: enough that p95 has ten samples beyond it and the
// MA queue dominates; small enough (about a second) that a run's median
// round rate rests on a few dozen rounds.
constexpr int kClients = 100;
constexpr int kRequestsPerClient = 2;
constexpr double kArrivalHz = 4000.0;

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof v);
}
std::uint64_t fnv_f64(std::uint64_t h, double v) {
  return fnv_u64(h, std::bit_cast<std::uint64_t>(v));
}
std::uint64_t fnv_str(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

// ---- the serving services, as loadgen/serving.cpp registers them ----------

gc::diet::ProfileDesc scalar_desc(const std::string& service) {
  gc::diet::ProfileDesc desc(service, 0, 0, 1);
  desc.arg(0).type = gc::diet::DataType::kScalar;
  desc.arg(0).base = gc::diet::BaseType::kLongInt;
  desc.arg(1).type = gc::diet::DataType::kScalar;
  desc.arg(1).base = gc::diet::BaseType::kLongInt;
  return desc;
}

gc::diet::ProfileDesc store_desc() {
  gc::diet::ProfileDesc desc("store", 0, 0, 1);
  desc.arg(0).type = gc::diet::DataType::kVector;
  desc.arg(0).base = gc::diet::BaseType::kDouble;
  desc.arg(1).type = gc::diet::DataType::kScalar;
  desc.arg(1).base = gc::diet::BaseType::kLongInt;
  return desc;
}

void add_scalar_service(gc::diet::ServiceTable& services,
                        const std::string& name, std::int64_t mult,
                        std::int64_t add, double modeled_seconds) {
  gc::diet::SolveFn solve = [mult, add,
                             modeled_seconds](gc::diet::ServiceContext& ctx) {
    ctx.compute(
        modeled_seconds,
        [&ctx, mult, add]() {
          const auto in = ctx.profile().arg(0).get_scalar<std::int64_t>();
          if (!in.is_ok()) return 1;
          ctx.profile().arg(1).set_scalar<std::int64_t>(
              in.value() * mult + add, gc::diet::BaseType::kLongInt,
              gc::diet::Persistence::kVolatile);
          return 0;
        },
        [&ctx](int rc) { ctx.finish(rc); });
  };
  GC_CHECK(services.add(scalar_desc(name), std::move(solve)).is_ok());
}

void add_store_service(gc::diet::ServiceTable& services,
                       double modeled_seconds) {
  gc::diet::SolveFn solve = [modeled_seconds](gc::diet::ServiceContext& ctx) {
    ctx.compute(
        modeled_seconds,
        [&ctx]() {
          const auto in = ctx.profile().arg(0).get_vector<double>();
          if (!in.is_ok()) return 1;
          double sum = 0.0;
          for (const double v : in.value()) sum += v;
          ctx.profile().arg(1).set_scalar<std::int64_t>(
              static_cast<std::int64_t>(std::llround(sum)),
              gc::diet::BaseType::kLongInt, gc::diet::Persistence::kVolatile);
          return 0;
        },
        [&ctx](int rc) { ctx.finish(rc); });
  };
  GC_CHECK(services.add(store_desc(), std::move(solve)).is_ok());
}

gc::diet::Profile make_request(const gc::loadgen::RequestProfile& profile,
                               int client, int seq) {
  gc::diet::Profile request(profile.service, 0, 0, 1);
  const auto mode = profile.persistent ? gc::diet::Persistence::kPersistent
                                       : gc::diet::Persistence::kVolatile;
  if (profile.service == "store") {
    const std::size_t n = std::max<std::size_t>(1, profile.in_bytes / 8);
    std::vector<double> data(n, 1.0 + 0.5 * ((client % 97) + seq));
    GC_CHECK(request.arg(0)
                 .set_vector<double>(data, gc::diet::BaseType::kDouble, mode)
                 .is_ok());
    request.arg(0).set_data_id(request.arg(0).content_id());
  } else {
    request.arg(0).set_scalar<std::int64_t>(
        (static_cast<std::int64_t>(client) << 20) | seq,
        gc::diet::BaseType::kLongInt, mode);
  }
  request.arg(1).desc.type = gc::diet::DataType::kScalar;
  request.arg(1).desc.base = gc::diet::BaseType::kLongInt;
  return request;
}

// ---- one round ------------------------------------------------------------

struct Round : RoundCore {
  double plan_s = 0.0;
  double journal_s = 0.0;
};

void serving_round(const gc::loadgen::ServingConfig& config, RoundMode mode,
                   Round& out) {
  const bool traced = mode == RoundMode::kTraced;
  const Clock::time_point setup_start = Clock::now();
  const gc::loadgen::LoadSpec& load = config.load;

  Clock::time_point t = Clock::now();
  const gc::platform::GeneratedPlatform fabric =
      gc::platform::make_fattree(config.topology);
  out.platform_s = seconds_since(t);

  t = Clock::now();
  gc::des::Engine engine;
  engine.set_tie_break_seed(config.tie_seed);
  gc::net::SimEnv env(engine, fabric.platform);
  gc::naming::Registry registry;

  gc::obs::Journal& journal = gc::obs::Journal::instance();
  journal.clear();
  journal.set_enabled(config.journal);

  // One shard: every service on every SED.
  gc::diet::ServiceTable table;
  add_scalar_service(table, "work", 2, 1, config.work_seconds);
  add_store_service(table, config.work_seconds);
  for (int k = 0; k < 4; ++k) {
    add_scalar_service(table, gc::strformat("rare%d", k), 3, k,
                       config.work_seconds);
  }
  std::vector<gc::diet::DeploymentSpec> shards(1);
  gc::diet::DeploymentSpec& spec = shards[0];
  spec.ma_name = "MA1";
  spec.policy = config.policy;
  spec.agent_tuning.peer_ttl = config.peer_ttl;
  spec.agent_tuning.peer_top_k = config.peer_top_k;
  spec.agent_tuning.federate_always = config.federate_always;
  spec.agent_tuning.collect_timeout = config.collect_timeout_s;
  spec.agent_tuning.max_child_timeouts = 1;
  spec.seed = load.seed ^ 0xace1ULL;
  spec.ma_node = fabric.ma_nodes.at(0);
  for (const auto& cluster : fabric.clusters) {
    gc::diet::DeploymentSpec::LaSpec la;
    la.name = gc::strformat("LA-p%02d-c%02llu", cluster.pod,
                            static_cast<unsigned long long>(cluster.cluster));
    la.node = cluster.la_node;
    for (std::size_t i = 0; i < cluster.sed_nodes.size(); ++i) {
      gc::diet::DeploymentSpec::SedSpec sed;
      sed.name = gc::strformat(
          "SeD-p%02d-c%02llu-%02zu", cluster.pod,
          static_cast<unsigned long long>(cluster.cluster), i);
      sed.node = cluster.sed_nodes[i];
      sed.machines = config.topology.machines_per_sed;
      la.sed_indexes.push_back(static_cast<int>(spec.seds.size()));
      spec.seds.push_back(sed);
    }
    spec.las.push_back(std::move(la));
  }
  gc::diet::Federation federation(env, registry,
                                  std::vector<gc::diet::ServiceTable*>{&table},
                                  std::move(shards));

  const int pods = config.topology.pods;
  std::vector<std::unique_ptr<gc::diet::Client>> clients;
  clients.reserve(static_cast<std::size_t>(load.clients));
  for (int c = 0; c < load.clients; ++c) {
    auto client = std::make_unique<gc::diet::Client>(
        gc::strformat("client-%05d", c), gc::diet::Client::Tuning{},
        static_cast<std::uint64_t>(c + 1) << 32);
    env.attach(*client, fabric.client_nodes[static_cast<std::size_t>(c % pods)]);
    client->connect(federation.ma(0).endpoint());
    clients.push_back(std::move(client));
  }
  out.deploy_s = seconds_since(t);

  t = Clock::now();
  engine.run_until(engine.now() + 2.0);
  out.register_s = seconds_since(t);

  t = Clock::now();
  const std::vector<gc::loadgen::Arrival> arrivals =
      gc::loadgen::plan_arrivals(load, engine.now() + 1.0);
  out.plan_s = seconds_since(t);
  out.setup_s = seconds_since(setup_start);
  if (mode == RoundMode::kSetupOnly) {
    journal.set_enabled(false);
    return;
  }

  if (traced) {
    env.set_fault_hook(&out.census);
    install_timed_policy(federation.ma(0), out.rank);
    for (std::size_t i = 0; i < federation.la_count(); ++i) {
      install_timed_policy(federation.la(i), out.rank);
    }
  }

  // ---- timed phase: the open-loop burst, then the journal export ----
  const std::uint64_t events_before = engine.events_executed();
  const Clock::time_point run_start = Clock::now();
  std::uint64_t digest = 0;
  for (const gc::loadgen::Arrival& a : arrivals) {
    gc::diet::Client* client = clients[static_cast<std::size_t>(a.client)].get();
    const gc::loadgen::RequestProfile& profile =
        load.profiles[static_cast<std::size_t>(a.profile)];
    const double delay = std::max(0.0, a.at_s - engine.now());
    env.post_after_as(
        client->endpoint(), delay,
        [&out, &digest, client, &profile, a,
         deadline = config.call_deadline_s]() {
          client->call_async(
              make_request(profile, a.client, a.seq),
              [&out, &digest](const gc::Status& status,
                              gc::diet::Profile& result) {
                std::uint64_t h = kFnvOffset;
                h = fnv_str(h, result.path());
                h = fnv_u64(h, status.is_ok() ? 1 : 0);
                if (status.is_ok()) {
                  ++out.ok;
                  const auto v = result.arg(1).get_scalar<std::int64_t>();
                  h = fnv_u64(h, v.is_ok() ? static_cast<std::uint64_t>(v.value())
                                           : 0xdeadULL);
                } else {
                  ++out.failed;
                }
                digest ^= h;
              },
              deadline);
        });
  }
  if (traced) {
    run_stepped(engine, out.steps);
  } else {
    engine.run();
  }
  t = Clock::now();
  const std::string jsonl = config.journal ? journal.to_jsonl() : std::string();
  out.journal_s = seconds_since(t);
  out.run_s = seconds_since(run_start);
  journal.set_enabled(false);
  env.set_fault_hook(nullptr);
  out.events = engine.events_executed() - events_before;
  out.queue_depth_max = engine.queue_depth_highwater();
  GC_CHECK_MSG(!config.journal || !jsonl.empty(), "journal export is empty");

  // ---- outputs, folded exactly as run_serving folds them ----
  double first_submit = -1.0;
  double last_complete = -1.0;
  double finding_sum = 0.0;
  std::uint64_t state = kFnvOffset;
  std::uint64_t call_digest = 0;
  for (const auto& client : clients) {
    for (const auto& rec : client->records()) {
      state = fnv_u64(state, rec.id);
      state = fnv_str(state, rec.service);
      state = fnv_f64(state, rec.submitted);
      state = fnv_f64(state, rec.found);
      state = fnv_f64(state, rec.started);
      state = fnv_f64(state, rec.completed);
      state = fnv_u64(state, rec.sed_uid);
      state = fnv_u64(state, rec.ok ? 1 : 0);
      std::uint64_t h = kFnvOffset;
      h = fnv_u64(h, rec.id);
      h = fnv_str(h, rec.service);
      h = fnv_u64(h, rec.ok ? 1 : 0);
      call_digest ^= h;
      ++out.calls;
      if (first_submit < 0.0 || rec.submitted < first_submit) {
        first_submit = rec.submitted;
      }
      if (rec.ok) {
        last_complete = std::max(last_complete, rec.completed);
        out.latency.push_back(rec.total_time());
        out.finding.push_back(rec.finding_time());
        out.queue.push_back(rec.latency());
        out.exec_return.push_back(rec.completed - rec.started);
        finding_sum += rec.finding_time();
      }
    }
  }
  out.science_digest = digest ^ call_digest;
  out.state_hash = state;
  for (auto* v : {&out.latency, &out.finding, &out.queue, &out.exec_return}) {
    std::sort(v->begin(), v->end());
  }
  if (!out.finding.empty()) {
    out.finding_mean = finding_sum / static_cast<double>(out.finding.size());
  }
  out.makespan = last_complete - first_submit;
}

}  // namespace

gc::loadgen::ServingConfig serving_config(std::uint64_t seed) {
  gc::loadgen::ServingConfig config;
  config.mas = 1;
  config.load.clients = kClients;
  config.load.requests_per_client = kRequestsPerClient;
  config.load.arrival_rate_hz = kArrivalHz;
  config.load.profiles = gc::loadgen::default_mix();
  config.load.seed = seed;
  config.contention = false;
  config.journal = true;
  return config;
}

Gate serving_gate(const ServingOutcome& got, const ServingOutcome& reference) {
  return {"digest_matches_run_serving",
          got.science_digest == reference.science_digest &&
              got.state_hash == reference.state_hash &&
              got.calls == reference.calls,
          "science " + hex64(got.science_digest) + " vs " +
              hex64(reference.science_digest) + ", state " +
              hex64(got.state_hash) + " vs " + hex64(reference.state_hash)};
}

Result run_serving_broadcast(const Options& options) {
  const gc::loadgen::ServingConfig config = serving_config(options.seed);
  Result result;

  // Reference: the library's own harness on the same inputs, once per run
  // and outside the measuring window.
  const gc::loadgen::ServingReport reference = gc::loadgen::run_serving(config);

  std::vector<std::unique_ptr<Round>> rounds;
  RunRounds run;
  const auto measure = [&](RoundMode mode) {
    rounds.push_back(std::make_unique<Round>());
    serving_round(config, mode, *rounds.back());
    return rounds.back().get();
  };
  const auto setup_only = [&]() {
    Round extra;
    serving_round(config, RoundMode::kSetupOnly, extra);
    run.setup_s.push_back(extra.setup_s);
  };
  const Clock::time_point window = Clock::now();
  do {
    run.plain.push_back(measure(RoundMode::kPlain));
    run.setup_s.push_back(run.plain.back()->setup_s);
    if (options.trace) {
      run.traced.push_back(measure(RoundMode::kTraced));
    } else {
      for (int i = 0; i < kSetupsPerRound; ++i) setup_only();
    }
  } while (seconds_since(window) < options.seconds ||
           (!options.trace && run.plain.size() < 3));
  while (!options.trace && run.setup_s.size() < kSetupSamples) setup_only();

  add_round_gates(result, run, options.trace);
  const RoundCore& first = *run.plain.front();
  result.gates.push_back(serving_gate(
      {first.science_digest, first.state_hash, first.calls},
      {reference.science_digest, reference.state_hash, reference.arrivals}));
  if (!options.trace) {
    add_run_metrics(result, run);
    return result;
  }

  Layers layers = shared_layers(result, run);
  add_layers(result, layers);
  std::vector<double> plan_s, journal_s;
  for (const RoundCore* r : run.traced) {
    plan_s.push_back(static_cast<const Round*>(r)->plan_s);
    journal_s.push_back(static_cast<const Round*>(r)->journal_s);
  }
  result.extra("loadgen.plan_s", median(plan_s), "s");
  result.extra("obs.journal_s", median(journal_s), "s");
  return result;
}

}  // namespace perfbench
