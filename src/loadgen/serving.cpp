#include "loadgen/serving.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "check/statehash.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "des/engine.hpp"
#include "diet/client.hpp"
#include "diet/deployment.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "naming/registry.hpp"
#include "net/simenv.hpp"
#include "obs/journal.hpp"

namespace gc::loadgen {

namespace {

/// Strings enter the digests as raw bytes: no length prefix, unlike
/// check::Fnv::str().
void hash_chars(check::Fnv& h, const std::string& s) {
  h.bytes(s.data(), s.size());
}

/// The deterministic scalar input of client c's seq-th request.
std::int64_t input_value(int client, int seq) {
  return (static_cast<std::int64_t>(client) << 20) | seq;
}

diet::ProfileDesc scalar_desc(const std::string& service) {
  diet::ProfileDesc desc(service, 0, 0, 1);
  desc.arg(0).type = diet::DataType::kScalar;
  desc.arg(0).base = diet::BaseType::kLongInt;
  desc.arg(1).type = diet::DataType::kScalar;
  desc.arg(1).base = diet::BaseType::kLongInt;
  return desc;
}

diet::ProfileDesc store_desc() {
  diet::ProfileDesc desc("store", 0, 0, 1);
  desc.arg(0).type = diet::DataType::kVector;
  desc.arg(0).base = diet::BaseType::kDouble;
  desc.arg(1).type = diet::DataType::kScalar;
  desc.arg(1).base = diet::BaseType::kLongInt;
  return desc;
}

/// All serving services output one int64 so the digest hashes uniformly:
///   work : in * 2 + 1
///   rareK: in * 3 + K
///   store: llround(sum of the shipped vector)
void register_scalar_service(diet::ServiceTable& services,
                             const std::string& name, std::int64_t mult,
                             std::int64_t add, double modeled_seconds) {
  diet::SolveFn solve = [mult, add, modeled_seconds](diet::ServiceContext& ctx) {
    ctx.compute(
        modeled_seconds,
        [&ctx, mult, add]() {
          const auto in = ctx.profile().arg(0).get_scalar<std::int64_t>();
          if (!in.is_ok()) return 1;
          ctx.profile().arg(1).set_scalar<std::int64_t>(
              in.value() * mult + add, diet::BaseType::kLongInt,
              diet::Persistence::kVolatile);
          return 0;
        },
        [&ctx](int rc) { ctx.finish(rc); });
  };
  GC_CHECK(services.add(scalar_desc(name), std::move(solve)).is_ok());
}

void register_store_service(diet::ServiceTable& services,
                            double modeled_seconds) {
  diet::SolveFn solve = [modeled_seconds](diet::ServiceContext& ctx) {
    ctx.compute(
        modeled_seconds,
        [&ctx]() {
          const auto in = ctx.profile().arg(0).get_vector<double>();
          if (!in.is_ok()) return 1;
          double sum = 0.0;
          for (const double v : in.value()) sum += v;
          ctx.profile().arg(1).set_scalar<std::int64_t>(
              static_cast<std::int64_t>(std::llround(sum)),
              diet::BaseType::kLongInt, diet::Persistence::kVolatile);
          return 0;
        },
        [&ctx](int rc) { ctx.finish(rc); });
  };
  GC_CHECK(services.add(store_desc(), std::move(solve)).is_ok());
}

diet::Profile make_request(const RequestProfile& profile, int client,
                           int seq) {
  diet::Profile request(profile.service, 0, 0, 1);
  if (profile.service == "store") {
    const std::size_t n = std::max<std::size_t>(1, profile.in_bytes / 8);
    std::vector<double> data(n, 1.0 + 0.5 * ((client % 97) + seq));
    GC_CHECK(request.arg(0)
                 .set_vector<double>(data, diet::BaseType::kDouble,
                                     profile.persistent
                                         ? diet::Persistence::kPersistent
                                         : diet::Persistence::kVolatile)
                 .is_ok());
    request.arg(0).set_data_id(request.arg(0).content_id());
  } else {
    request.arg(0).set_scalar<std::int64_t>(
        input_value(client, seq), diet::BaseType::kLongInt,
        profile.persistent ? diet::Persistence::kPersistent
                           : diet::Persistence::kVolatile);
  }
  request.arg(1).desc.type = diet::DataType::kScalar;
  request.arg(1).desc.base = diet::BaseType::kLongInt;
  return request;
}

}  // namespace

std::vector<RequestProfile> default_mix() {
  std::vector<RequestProfile> mix;
  mix.push_back({"work", 8, 90.0, false});
  mix.push_back({"store", 64 * 1024, 4.0, true});
  for (int k = 0; k < 4; ++k) {
    mix.push_back({strformat("rare%d", k), 8, 1.5, false});
  }
  return mix;
}

ServingReport run_serving(const ServingConfig& config) {
  const auto wall_start = std::chrono::steady_clock::now();
  GC_CHECK_MSG(config.mas >= 1 && config.mas <= config.topology.pods,
               "mas must be in [1, pods]");
  const auto plan_status = fault::parse_plan(config.fault_plan);
  GC_CHECK_MSG(plan_status.is_ok(), plan_status.status().to_string());
  const fault::FaultPlan plan = plan_status.value();

  LoadSpec load = config.load;
  if (load.profiles.empty()) load.profiles = default_mix();

  platform::GeneratedPlatform fabric = platform::make_fattree(config.topology);
  const int pods = config.topology.pods;
  const auto shard_of_pod = [&](int pod) { return pod * config.mas / pods; };

  des::Engine engine;
  engine.set_tie_break_seed(config.tie_seed);
  net::SimEnv env(engine, fabric.platform);
  if (config.contention) env.enable_contention();
  naming::Registry registry;

  std::unique_ptr<fault::Injector> injector;
  if (plan.active) {
    injector = std::make_unique<fault::Injector>(plan, config.fault_seed);
    env.set_fault_hook(injector.get());
  }

  obs::Journal& journal = obs::Journal::instance();
  journal.clear();
  journal.set_enabled(config.journal);

  // Per-shard service tables: work/store everywhere, rareK only on shard
  // K mod mas — those are the requests that must cross the federation.
  std::vector<std::unique_ptr<diet::ServiceTable>> tables;
  std::vector<diet::ServiceTable*> table_ptrs;
  for (int s = 0; s < config.mas; ++s) {
    auto table = std::make_unique<diet::ServiceTable>();
    register_scalar_service(*table, "work", 2, 1, config.work_seconds);
    register_store_service(*table, config.work_seconds);
    for (int k = 0; k < 4; ++k) {
      if (k % config.mas == s) {
        register_scalar_service(*table, strformat("rare%d", k), 3, k,
                                config.work_seconds);
      }
    }
    table_ptrs.push_back(table.get());
    tables.push_back(std::move(table));
  }

  // Shard specs: contiguous pod blocks, the shard's MA on its first pod's
  // control node.
  std::vector<diet::DeploymentSpec> shards(
      static_cast<std::size_t>(config.mas));
  for (int s = 0; s < config.mas; ++s) {
    diet::DeploymentSpec& spec = shards[static_cast<std::size_t>(s)];
    spec.ma_name = strformat("MA%d", s + 1);
    spec.policy = config.policy;
    spec.agent_tuning.peer_ttl = config.peer_ttl;
    spec.agent_tuning.peer_top_k = config.peer_top_k;
    spec.agent_tuning.federate_always = config.federate_always;
    spec.agent_tuning.collect_timeout = config.collect_timeout_s;
    // Strike eviction piggybacks on collect timeouts; with a timeout this
    // long a strike means a genuinely dead subtree, so one is enough.
    spec.agent_tuning.max_child_timeouts = 1;
    spec.seed = load.seed ^ (0xace1ULL + static_cast<std::uint64_t>(s));
    bool ma_placed = false;
    for (const auto& cluster : fabric.clusters) {
      if (shard_of_pod(cluster.pod) != s) continue;
      if (!ma_placed) {
        spec.ma_node = fabric.ma_nodes[static_cast<std::size_t>(cluster.pod)];
        ma_placed = true;
      }
      diet::DeploymentSpec::LaSpec la;
      la.name = strformat("LA-p%02d-c%02llu", cluster.pod,
                          static_cast<unsigned long long>(cluster.cluster));
      la.node = cluster.la_node;
      for (std::size_t i = 0; i < cluster.sed_nodes.size(); ++i) {
        diet::DeploymentSpec::SedSpec sed;
        sed.name = strformat(
            "SeD-p%02d-c%02llu-%02zu", cluster.pod,
            static_cast<unsigned long long>(cluster.cluster), i);
        sed.node = cluster.sed_nodes[i];
        sed.machines = config.topology.machines_per_sed;
        la.sed_indexes.push_back(static_cast<int>(spec.seds.size()));
        spec.seds.push_back(sed);
      }
      spec.las.push_back(std::move(la));
    }
    GC_CHECK_MSG(ma_placed, "a shard ended up with no pods");
  }

  diet::Federation federation(env, registry, table_ptrs, std::move(shards));

  // Clients: client c lives on pod (c mod pods)'s frontal and talks to
  // that pod's shard MA. id_base (c+1)<<32 keeps call ids disjoint.
  diet::Client::Tuning client_tuning;
  if (plan.active) {
    client_tuning.max_attempts = plan.max_attempts;
    client_tuning.attempt_timeout_s = plan.attempt_timeout_s;
    client_tuning.backoff_base_s = plan.backoff_base_s;
    client_tuning.backoff_mult = plan.backoff_mult;
  }
  std::vector<std::unique_ptr<diet::Client>> clients;
  clients.reserve(static_cast<std::size_t>(load.clients));
  for (int c = 0; c < load.clients; ++c) {
    const int pod = c % pods;
    auto client = std::make_unique<diet::Client>(
        strformat("client-%05d", c), client_tuning,
        static_cast<std::uint64_t>(c + 1) << 32);
    env.attach(*client, fabric.client_nodes[static_cast<std::size_t>(pod)]);
    client->connect(
        federation.ma(static_cast<std::size_t>(shard_of_pod(pod)))
            .endpoint());
    clients.push_back(std::move(client));
  }

  // Let registration (and the peer announces) settle.
  engine.run_until(engine.now() + 2.0);

  const std::vector<Arrival> arrivals =
      plan_arrivals(load, engine.now() + 1.0);
  if (!config.trace_out.empty()) {
    const gc::Status st = write_trace(config.trace_out, arrivals);
    GC_CHECK_MSG(st.is_ok(), st.to_string());
  }

  // The plan's process-fault schedule, mapped through the federation's
  // flat SED/LA indexes (shard-major, like a single deployment's).
  if (plan.active) {
    federation.arm_faults(
        fault::materialize(plan, static_cast<int>(federation.sed_count()),
                           static_cast<int>(federation.la_count()),
                           config.fault_seed),
        injector.get());
  }

  ServingReport report;
  report.sed_count = federation.sed_count();
  report.arrivals = arrivals.size();

  // Schedule the open-loop plan. The done callback folds the science
  // digest: XOR of per-call hashes, so completion order cannot matter.
  for (const Arrival& a : arrivals) {
    GC_CHECK(a.client >= 0 && a.client < load.clients);
    GC_CHECK(a.profile >= 0 &&
             static_cast<std::size_t>(a.profile) < load.profiles.size());
    diet::Client* client = clients[static_cast<std::size_t>(a.client)].get();
    const RequestProfile& profile =
        load.profiles[static_cast<std::size_t>(a.profile)];
    const double delay = std::max(0.0, a.at_s - engine.now());
    env.post_after_as(
        client->endpoint(), delay,
        [&report, client, &profile, a, deadline = config.call_deadline_s]() {
          client->call_async(
              make_request(profile, a.client, a.seq),
              [&report](const gc::Status& status, diet::Profile& result) {
                ++report.completed;
                check::Fnv h;
                hash_chars(h, result.path());
                h.u64(status.is_ok() ? 1 : 0);
                if (status.is_ok()) {
                  ++report.ok;
                  const auto out =
                      result.arg(1).get_scalar<std::int64_t>();
                  h.u64(out.is_ok() ? static_cast<std::uint64_t>(out.value())
                                    : 0xdeadULL);
                } else {
                  ++report.failed;
                }
                report.science_digest ^= h.h;
              },
              deadline);
        });
  }

  engine.run();

  // Aggregate: latencies and the state hash from the clients' records
  // (client index order, so the hash is schedule-independent), quantiles
  // from the journal when it is on.
  double first_submit = -1.0;
  double last_complete = -1.0;
  std::vector<double> latencies;
  latencies.reserve(report.ok);
  check::Fnv state;
  std::uint64_t call_digest = 0;
  for (const auto& client : clients) {
    for (const auto& rec : client->records()) {
      state.u64(rec.id);
      hash_chars(state, rec.service);
      state.d(rec.submitted);
      state.d(rec.found);
      state.d(rec.started);
      state.d(rec.completed);
      state.u64(rec.sed_uid);
      state.u64(rec.ok ? 1 : 0);
      check::Fnv h;
      h.u64(rec.id);
      hash_chars(h, rec.service);
      h.u64(rec.ok ? 1 : 0);
      call_digest ^= h.h;
      if (first_submit < 0.0 || rec.submitted < first_submit) {
        first_submit = rec.submitted;
      }
      if (rec.ok) {
        last_complete = std::max(last_complete, rec.completed);
        latencies.push_back(rec.total_time());
      }
    }
  }
  // Fold the call-level view in too, so a digest collision would need to
  // fool both the result values and the completion statuses.
  report.science_digest ^= call_digest;

  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto q = [&](double p) {
      const auto i = static_cast<std::size_t>(
          p * static_cast<double>(latencies.size() - 1));
      return latencies[i];
    };
    report.p50_s = q(0.50);
    report.p99_s = q(0.99);
  }
  if (first_submit >= 0.0 && last_complete > first_submit) {
    report.makespan_s = last_complete - first_submit;
    report.requests_per_sec =
        static_cast<double>(report.ok) / report.makespan_s;
  }
  report.state_hash = state.h;
  report.events = engine.events_executed();
  for (std::size_t s = 0; s < federation.shard_count(); ++s) {
    const diet::Agent::PeerStats& stats = federation.ma(s).peer_stats();
    report.peer.forwards += stats.forwards;
    report.peer.replies += stats.replies;
    report.peer.dup_drops += stats.dup_drops;
    report.peer.loop_drops += stats.loop_drops;
    report.peer.evictions += stats.evictions;
    report.peer.candidates_returned += stats.candidates_returned;
  }
  if (config.journal) {
    report.journal_jsonl = journal.to_jsonl();
  }
  journal.set_enabled(false);
  report.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  return report;
}

}  // namespace gc::loadgen
