// Middleware integration tests: client / MA / LA / SED over the DES (and
// one RealEnv end-to-end check), with a synthetic "double" service.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "des/engine.hpp"
#include "diet/client.hpp"
#include "diet/deployment.hpp"
#include "naming/registry.hpp"
#include "net/realenv.hpp"
#include "net/simenv.hpp"

namespace gc::diet {
namespace {

ProfileDesc double_desc(const std::string& name = "double") {
  ProfileDesc desc(name, 0, 0, 1);
  desc.arg(0).type = DataType::kScalar;
  desc.arg(0).base = BaseType::kInt;
  desc.arg(1).type = DataType::kScalar;
  desc.arg(1).base = BaseType::kInt;
  return desc;
}

/// Registers "double" (or the same shape under another name): OUT = 2 * IN,
/// with a fixed modeled duration.
void register_double(ServiceTable& table, double modeled_seconds,
                     const std::string& name = "double") {
  SolveFn solve = [modeled_seconds](ServiceContext& ctx) {
    ctx.compute(
        modeled_seconds,
        [&ctx]() {
          const auto in = ctx.profile().arg(0).get_scalar<std::int32_t>();
          if (!in.is_ok()) return 1;
          ctx.profile().arg(1).set_scalar<std::int32_t>(
              in.value() * 2, BaseType::kInt, Persistence::kVolatile);
          return 0;
        },
        [&ctx](int rc) { ctx.finish(rc); });
  };
  ASSERT_TRUE(table.add(double_desc(name), std::move(solve)).is_ok());
}

Profile double_profile(std::int32_t value,
                       const std::string& name = "double") {
  Profile profile(name, 0, 0, 1);
  profile.arg(0).set_scalar<std::int32_t>(value, BaseType::kInt,
                                          Persistence::kVolatile);
  profile.arg(1).desc.type = DataType::kScalar;
  profile.arg(1).desc.base = BaseType::kInt;
  return profile;
}

/// Two-cluster fixture: 1 MA, 2 LAs, 2 SEDs each (4 SEDs total).
struct SimFixture {
  explicit SimFixture(double service_seconds = 10.0,
                      const std::string& policy = "default")
      : topology(5e-3, 1.25e8), env(engine, topology) {
    register_double(services, service_seconds);
    DeploymentSpec spec;
    spec.ma_node = 0;
    spec.policy = policy;
    for (int la = 0; la < 2; ++la) {
      DeploymentSpec::LaSpec l;
      l.name = "LA" + std::to_string(la);
      l.node = static_cast<net::NodeId>(1 + la);
      for (int s = 0; s < 2; ++s) {
        DeploymentSpec::SedSpec sed;
        sed.name = "SeD" + std::to_string(la) + std::to_string(s);
        sed.node = static_cast<net::NodeId>(3 + la * 2 + s);
        sed.host_power = 1.0 + 0.2 * la;
        sed.machines = 4;
        l.sed_indexes.push_back(static_cast<int>(spec.seds.size()));
        spec.seds.push_back(sed);
      }
      spec.las.push_back(l);
    }
    deployment = std::make_unique<Deployment>(env, registry, services, spec);
    env.attach(client, 0);
    client.connect(registry.resolve("MA1").value());
    engine.run_until(engine.now() + 1.0);
  }

  des::Engine engine;
  net::UniformTopology topology;
  net::SimEnv env;
  naming::Registry registry;
  ServiceTable services;
  std::unique_ptr<Deployment> deployment;
  Client client{"client"};
};

TEST(Agents, RegistrationPropagatesServices) {
  SimFixture fix;
  EXPECT_EQ(fix.deployment->ma().child_count(), 2u);
  EXPECT_EQ(fix.deployment->ma().services().count("double"), 1u);
  EXPECT_EQ(fix.deployment->la(0).child_count(), 2u);
  EXPECT_EQ(fix.deployment->la(1).services().count("double"), 1u);
}

TEST(Agents, SingleCallHappyPath) {
  SimFixture fix;
  gc::Status status = make_error(ErrorCode::kInternal, "never ran");
  std::int32_t result = 0;
  fix.client.call_async(double_profile(21),
                        [&](const gc::Status& s, Profile& profile) {
                          status = s;
                          result =
                              profile.arg(1).get_scalar<std::int32_t>().value();
                        });
  fix.engine.run();
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(result, 42);

  const auto& record = fix.client.records().at(0);
  EXPECT_TRUE(record.ok);
  EXPECT_GT(record.finding_time(), 0.0);
  EXPECT_GT(record.latency(), 0.0);
  EXPECT_GE(record.completed, record.started);
  EXPECT_FALSE(record.sed_name.empty());
}

TEST(Agents, UnknownServiceIsUnavailable) {
  SimFixture fix;
  Profile profile("nonexistent", 0, 0, 1);
  profile.arg(0).set_scalar<std::int32_t>(1, BaseType::kInt,
                                          Persistence::kVolatile);
  gc::Status status;
  fix.client.call_async(std::move(profile),
                        [&](const gc::Status& s, Profile&) { status = s; });
  fix.engine.run();
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

TEST(Agents, MismatchedProfileShapeIsUnavailable) {
  SimFixture fix;
  // Same name, wrong arg types: SEDs must refuse the match.
  Profile profile("double", 0, 0, 1);
  profile.arg(0).set_scalar<double>(1.0, BaseType::kDouble,
                                    Persistence::kVolatile);
  gc::Status status;
  fix.client.call_async(std::move(profile),
                        [&](const gc::Status& s, Profile&) { status = s; });
  fix.engine.run();
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

TEST(Agents, ConcurrentRequestsSpreadEvenly) {
  SimFixture fix(/*service_seconds=*/50.0);
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    fix.client.call_async(double_profile(i),
                          [&](const gc::Status& s, Profile&) {
                            EXPECT_TRUE(s.is_ok());
                            ++done;
                          });
  }
  fix.engine.run();
  EXPECT_EQ(done, 20);
  for (std::size_t i = 0; i < fix.deployment->sed_count(); ++i) {
    EXPECT_EQ(fix.deployment->sed(i).jobs_completed(), 5u)
        << fix.deployment->sed(i).name();
  }
}

TEST(Agents, SedRunsOneJobAtATime) {
  SimFixture fix(/*service_seconds=*/100.0);
  for (int i = 0; i < 8; ++i) {
    fix.client.call_async(double_profile(i),
                          [](const gc::Status&, Profile&) {});
  }
  fix.engine.run();
  for (std::size_t i = 0; i < fix.deployment->sed_count(); ++i) {
    const auto& jobs = fix.deployment->sed(i).job_log();
    for (std::size_t j = 1; j < jobs.size(); ++j) {
      // No overlap: each job starts after the previous one finished.
      EXPECT_GE(jobs[j].started, jobs[j - 1].finished);
    }
  }
}

TEST(Agents, QueueWaitShowsUpInLatency) {
  SimFixture fix(/*service_seconds=*/100.0);
  for (int i = 0; i < 8; ++i) {
    fix.client.call_async(double_profile(i),
                          [](const gc::Status&, Profile&) {});
  }
  fix.engine.run();
  double min_latency = 1e18;
  double max_latency = 0.0;
  for (const auto& record : fix.client.records()) {
    min_latency = std::min(min_latency, record.latency());
    max_latency = std::max(max_latency, record.latency());
  }
  // 8 jobs on 4 SEDs: the second wave waits ~100s in the queues.
  EXPECT_LT(min_latency, 1.0);
  EXPECT_GT(max_latency, 99.0);
}

TEST(Agents, OutstandingBookkeeping) {
  SimFixture fix(/*service_seconds=*/5.0);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    fix.client.call_async(double_profile(i),
                          [&](const gc::Status&, Profile&) { ++done; });
  }
  fix.engine.run();
  EXPECT_EQ(done, 4);
  // After kJobDone propagation every outstanding counter is back to zero.
  std::uint64_t assigned_total = 0;
  for (std::uint64_t uid = 1; uid <= 4; ++uid) {
    EXPECT_DOUBLE_EQ(fix.deployment->ma().outstanding(uid), 0.0);
    assigned_total += fix.deployment->ma().assigned_total(uid);
  }
  EXPECT_EQ(assigned_total, 4u);
  EXPECT_EQ(fix.deployment->ma().requests_handled(), 4u);
}

TEST(Agents, DeadSedTimeoutFallsBackToOthers) {
  // One SED with an estimation delay far beyond the collect timeout: the
  // MA must schedule with the answers it has.
  des::Engine engine;
  net::UniformTopology topology(1e-3, 1e9);
  net::SimEnv env(engine, topology);
  naming::Registry registry;
  ServiceTable services;
  register_double(services, 1.0);

  DeploymentSpec spec;
  spec.ma_node = 0;
  spec.agent_tuning.collect_timeout = 0.5;
  DeploymentSpec::LaSpec la;
  la.name = "LA";
  la.node = 1;
  DeploymentSpec::SedSpec healthy;
  healthy.name = "healthy";
  healthy.node = 2;
  la.sed_indexes.push_back(0);
  spec.seds.push_back(healthy);
  spec.las.push_back(la);
  Deployment deployment(env, registry, services, spec);

  // A rogue SED that registers but never answers collects.
  class Silent final : public net::Actor {
   public:
    void on_message(const net::Envelope& envelope) override {
      if (envelope.type == kRegisterAck) return;
      // swallow everything (dead after registration)
    }
  } silent;
  env.attach(silent, 3);
  SedRegisterMsg reg;
  reg.sed_uid = 99;
  reg.name = "silent";
  reg.services.push_back(double_desc());
  env.send(net::Envelope{silent.endpoint(),
                         registry.resolve("LA").value(), kSedRegister,
                         reg.encode(), 0});

  Client client("client");
  env.attach(client, 0);
  client.connect(registry.resolve("MA1").value());
  engine.run_until(engine.now() + 1.0);

  gc::Status status = make_error(ErrorCode::kInternal, "never ran");
  client.call_async(double_profile(5),
                    [&](const gc::Status& s, Profile&) { status = s; });
  engine.run();
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  const auto& record = client.records().at(0);
  EXPECT_EQ(record.sed_name, "healthy");
  // The finding time includes the LA's timeout wait (60% of the MA's
  // 0.5 s budget), not the full budget: the LA answered with what it had.
  EXPECT_GT(record.finding_time(), 0.29);
  EXPECT_LT(record.finding_time(), 0.5);
}

TEST(Agents, PolicySwapAtRuntime) {
  SimFixture fix(/*service_seconds=*/10.0, "default");
  fix.deployment->ma().set_policy(sched::make_fastest_policy());
  gc::Status status;
  std::string sed_name;
  fix.client.call_async(double_profile(1),
                        [&](const gc::Status& s, Profile&) { status = s; });
  fix.engine.run();
  EXPECT_TRUE(status.is_ok());
  // fastest policy: one of the LA1 SEDs (power 1.2).
  EXPECT_EQ(fix.client.records().at(0).sed_name.substr(0, 4), "SeD1");
}

TEST(Agents, FailedSedDropsEverything) {
  SimFixture fix(/*service_seconds=*/200.0);
  // Submit 4 jobs (one lands per SED), then kill one SED immediately.
  int completed = 0;
  int failed = 0;
  for (int i = 0; i < 4; ++i) {
    fix.client.call_async(
        double_profile(i),
        [&](const gc::Status& s, Profile&) {
          if (s.is_ok()) {
            ++completed;
          } else {
            ++failed;
          }
        },
        /*deadline_s=*/400.0);
  }
  // Let scheduling+data placement happen, then kill SED uid 1.
  fix.engine.run_until(fix.engine.now() + 5.0);
  fix.deployment->sed(0).fail();
  fix.engine.run();
  // The three survivors complete; the job on the dead SED hits its
  // deadline.
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(failed, 1);
}

TEST(Agents, CallDeadlineCancelledOnCompletion) {
  SimFixture fix(/*service_seconds=*/10.0);
  gc::Status status = make_error(ErrorCode::kInternal, "no run");
  fix.client.call_async(
      double_profile(3),
      [&](const gc::Status& s, Profile&) { status = s; },
      /*deadline_s=*/1000.0);
  fix.engine.run();
  EXPECT_TRUE(status.is_ok());  // deadline timer cancelled on completion
}

TEST(Agents, UnresponsiveChildEvictedAfterStrikes) {
  SimFixture fix(/*service_seconds=*/1.0);
  // Kill one SED before any request: it stays registered but silent.
  fix.deployment->sed(0).fail();
  const std::size_t children_before = 2;  // LA0 had two SEDs
  EXPECT_EQ(fix.deployment->la(0).child_count(), children_before);

  // The agent tuning defaults to max_child_timeouts = 2: two slow rounds,
  // then the LA evicts the dead child and scheduling is fast again.
  std::vector<double> finding_times;
  for (int i = 0; i < 4; ++i) {
    bool done = false;
    fix.client.call_async(double_profile(i),
                          [&](const gc::Status& s, Profile&) {
                            EXPECT_TRUE(s.is_ok());
                            done = true;
                          });
    fix.engine.run();
    ASSERT_TRUE(done);
    finding_times.push_back(fix.client.records().back().finding_time());
  }
  EXPECT_EQ(fix.deployment->la(0).child_count(), children_before - 1);
  // Rounds 1-2 pay the LA timeout; later rounds are back to normal.
  EXPECT_GT(finding_times[0], 1.0);
  EXPECT_GT(finding_times[1], 1.0);
  EXPECT_LT(finding_times[3], 0.5);
}

// --- Fan-out bookkeeping: which children a collect is sent to ------------
// Each agent caches its per-service fan-out list and drops it in one place
// (children_changed). These tests pin every event that must change the
// list: a heartbeat-dead child, its revival, a restart under a new
// endpoint, a child that gains a service, a new child, and an eviction.

/// Records every kRequestCollect destination and drops the heartbeats or
/// candidate replies of chosen senders.
class CollectCensus final : public net::FaultHook {
 public:
  net::FaultDecision on_message(SimTime, net::NodeId, net::NodeId,
                                const net::Envelope& envelope,
                                std::uint64_t) override {
    if (envelope.type == kRequestCollect) asked.insert(envelope.to);
    net::FaultDecision decision;
    decision.drop = (envelope.type == kHeartbeat &&
                     mute_heartbeats.count(envelope.from) > 0) ||
                    (envelope.type == kCandidates &&
                     mute_replies.count(envelope.from) > 0);
    return decision;
  }

  std::set<net::Endpoint> asked;
  std::set<net::Endpoint> mute_heartbeats;
  std::set<net::Endpoint> mute_replies;
};

/// 1 MA, 1 LA over 4 SEDs, collect timeout 1 s (the LA waits 0.6 s).
struct FanoutFixture {
  explicit FanoutFixture(double heartbeat_period)
      : topology(1e-3, 1e9), env(engine, topology) {
    register_double(services, 1.0);
    DeploymentSpec spec;
    spec.ma_node = 0;
    spec.agent_tuning.collect_timeout = 1.0;
    spec.agent_tuning.max_child_timeouts = 2;
    spec.agent_tuning.heartbeat_period = heartbeat_period;
    spec.agent_tuning.heartbeat_timeout = 4 * heartbeat_period;
    spec.sed_tuning.heartbeat_period = heartbeat_period;
    DeploymentSpec::LaSpec la;
    la.name = "LA";
    la.node = 1;
    for (int i = 0; i < 4; ++i) {
      DeploymentSpec::SedSpec sed;
      sed.name = "SeD" + std::to_string(i);
      sed.node = static_cast<net::NodeId>(2 + i);
      la.sed_indexes.push_back(i);
      spec.seds.push_back(sed);
    }
    spec.las.push_back(la);
    deployment = std::make_unique<Deployment>(env, registry, services, spec);
    env.set_fault_hook(&census);
    env.attach(client, 0);
    client.connect(registry.resolve("MA1").value());
    engine.run_until(engine.now() + 1.0);
  }

  ~FanoutFixture() { env.set_fault_hook(nullptr); }

  /// One call, run to completion; returns the endpoints it asked.
  std::set<net::Endpoint> call(const std::string& service = "double",
                               bool expect_ok = true) {
    census.asked.clear();
    bool done = false;
    client.call_async(double_profile(3, service),
                      [&](const gc::Status& s, Profile&) {
                        EXPECT_EQ(s.is_ok(), expect_ok) << s.to_string();
                        done = true;
                      });
    // Heartbeat loops never let the calendar drain: step in bounded slices.
    for (int i = 0; i < 100 && !done; ++i) {
      engine.run_until(engine.now() + 0.1);
    }
    EXPECT_TRUE(done) << service << " call never completed";
    return census.asked;
  }

  net::Endpoint sed(std::size_t i) { return deployment->sed(i).endpoint(); }
  Agent& la() { return deployment->la(0); }

  des::Engine engine;
  net::UniformTopology topology;
  net::SimEnv env;
  naming::Registry registry;
  ServiceTable services;
  std::unique_ptr<Deployment> deployment;
  CollectCensus census;
  Client client{"client"};
};

TEST(AgentFanout, SkipsHeartbeatDeadChildAndAsksItOnceRevived) {
  FanoutFixture fix(/*heartbeat_period=*/0.5);
  std::set<net::Endpoint> asked = fix.call();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(asked.count(fix.sed(i)), 1u);

  // SeD1's beacons stop: after the 2 s deadline the LA marks it dead.
  fix.census.mute_heartbeats.insert(fix.sed(1));
  fix.engine.run_until(fix.engine.now() + 3.0);
  EXPECT_EQ(fix.la().heartbeat_evictions(), 1u);
  asked = fix.call();
  EXPECT_EQ(asked.count(fix.sed(1)), 0u) << "a heartbeat-dead SED was asked";
  EXPECT_EQ(asked.count(fix.sed(0)), 1u);
  EXPECT_EQ(asked.count(fix.sed(2)), 1u);
  EXPECT_EQ(asked.count(fix.sed(3)), 1u);

  // Its next beacon revives it.
  fix.census.mute_heartbeats.clear();
  fix.engine.run_until(fix.engine.now() + 1.5);
  asked = fix.call();
  EXPECT_EQ(asked.count(fix.sed(1)), 1u) << "a revived SED was not asked";
}

TEST(AgentFanout, FollowsRestartsNewServicesNewChildrenAndEvictions) {
  FanoutFixture fix(/*heartbeat_period=*/0.0);
  std::set<net::Endpoint> asked = fix.call();
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(asked.count(fix.sed(i)), 1u);

  // Crash-restart: SeD2 comes back under a fresh endpoint.
  const net::Endpoint old_endpoint = fix.sed(2);
  fix.deployment->sed(2).fail();
  fix.deployment->sed(2).restart();
  fix.engine.run_until(fix.engine.now() + 0.5);
  ASSERT_NE(fix.sed(2), old_endpoint);
  asked = fix.call();
  EXPECT_EQ(asked.count(fix.sed(2)), 1u)
      << "a restarted SED was not asked at its new endpoint";

  // The hierarchy has no "triple" yet; then a fifth SED brings it (and
  // "double"). The LA gains a service, the MA must ask it for "triple",
  // and the LA must ask the newcomer for both services.
  EXPECT_TRUE(fix.call("triple", /*expect_ok=*/false).empty());
  ServiceTable extra_services;
  register_double(extra_services, 1.0);
  register_double(extra_services, 1.0, "triple");
  Sed extra(/*uid=*/50, "extra", extra_services, 1.0, 1, SedTuning{}, 9);
  fix.env.attach(extra, 6);
  extra.register_at(fix.la().endpoint());
  fix.engine.run_until(fix.engine.now() + 0.5);
  asked = fix.call("triple");
  EXPECT_EQ(asked.count(fix.la().endpoint()), 1u)
      << "an LA that gained a service was not asked for it";
  EXPECT_EQ(asked.count(extra.endpoint()), 1u);
  asked = fix.call();
  EXPECT_EQ(asked.count(extra.endpoint()), 1u) << "a new SED was not asked";
  ASSERT_EQ(fix.la().child_count(), 5u);

  // Strikes: SeD3 stays silent, SeD0 is silent, answers once, then is
  // silent again. SeD3 goes after exactly max_child_timeouts = 2 silent
  // rounds; SeD0's answer reset its count, so its later silence is one
  // strike again, not a second one.
  fix.census.mute_replies = {fix.sed(0), fix.sed(3)};
  fix.call();
  EXPECT_EQ(fix.la().child_count(), 5u);
  fix.census.mute_replies = {fix.sed(3)};
  asked = fix.call();
  EXPECT_EQ(asked.count(fix.sed(3)), 1u);
  EXPECT_EQ(fix.la().child_count(), 4u) << "SeD3 not evicted after 2 strikes";
  fix.census.mute_replies = {fix.sed(0), fix.sed(3)};
  asked = fix.call();
  EXPECT_EQ(asked.count(fix.sed(3)), 0u) << "an evicted SED was asked";
  EXPECT_EQ(asked.count(fix.sed(0)), 1u);
  EXPECT_EQ(fix.la().child_count(), 4u)
      << "SeD0's strike count was not reset when it answered";
  fix.census.mute_replies.clear();

  // A second agent registers at the MA after "double" was fanned out.
  class SilentAgent final : public net::Actor {
   public:
    void on_message(const net::Envelope&) override {}
  } late;
  fix.env.attach(late, 7);
  AgentRegisterMsg reg;
  reg.name = "LA-late";
  reg.services = {"double"};
  fix.env.send(net::Envelope{late.endpoint(), fix.deployment->ma().endpoint(),
                             kAgentRegister, reg.encode(), 0});
  fix.engine.run_until(fix.engine.now() + 0.5);
  asked = fix.call();
  EXPECT_EQ(asked.count(late.endpoint()), 1u) << "a new agent was not asked";
}

TEST(Agents, RealEnvEndToEnd) {
  net::UniformTopology topology(1e-4, 1e9);
  net::RealEnv env(topology);
  naming::Registry registry;
  ServiceTable services;
  register_double(services, 0.0);

  DeploymentSpec spec;
  spec.ma_node = 0;
  DeploymentSpec::LaSpec la;
  la.name = "LA";
  la.node = 1;
  DeploymentSpec::SedSpec sed;
  sed.name = "SeD";
  sed.node = 2;
  la.sed_indexes.push_back(0);
  spec.seds.push_back(sed);
  spec.las.push_back(la);
  Deployment deployment(env, registry, services, spec);

  Client client("client");
  env.attach(client, 0);
  client.connect(registry.resolve("MA1").value());
  env.start();
  env.wait_idle();

  Profile profile = double_profile(100);
  const gc::Status status = client.call(profile);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(profile.arg(1).get_scalar<std::int32_t>().value(), 200);
  env.stop();
}

}  // namespace
}  // namespace gc::diet
