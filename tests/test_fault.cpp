// Chaos suite: the DIET hierarchy under deterministic fault injection.
//
// The contract under test (ISSUE 4): with a fault plan active, the zoom
// campaign must still complete every sub-simulation with science output
// identical to the fault-free run, two same-seed chaos runs must be
// bit-identical, retries must never execute a call id twice on any SED
// (at-most-once), a crashed SED must fail a call within its deadline
// instead of hanging it, and heartbeat evictions must land at the same
// virtual timestamps on every replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "des/engine.hpp"
#include "diet/client.hpp"
#include "diet/deployment.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "naming/registry.hpp"
#include "net/simenv.hpp"
#include "obs/trace.hpp"
#include "workflow/campaign.hpp"

namespace gc {
namespace {

// ---------- fault plans ----------

TEST(FaultPlan, NoneIsInactive) {
  const auto plan = fault::parse_plan("none");
  ASSERT_TRUE(plan.is_ok());
  EXPECT_FALSE(plan.value().active);
  EXPECT_EQ(plan.value().to_string(), "none");
}

TEST(FaultPlan, PresetsActivate) {
  const auto drop = fault::parse_plan("drop-only");
  ASSERT_TRUE(drop.is_ok());
  EXPECT_TRUE(drop.value().active);
  EXPECT_GT(drop.value().drop_rate, 0.0);
  EXPECT_EQ(drop.value().sed_crash_fraction, 0.0);

  const auto crash = fault::parse_plan("crash-only");
  ASSERT_TRUE(crash.is_ok());
  EXPECT_EQ(crash.value().drop_rate, 0.0);
  EXPECT_GT(crash.value().sed_crash_fraction, 0.0);

  const auto mixed = fault::parse_plan("mixed");
  ASSERT_TRUE(mixed.is_ok());
  EXPECT_GT(mixed.value().drop_rate, 0.0);
  EXPECT_GT(mixed.value().sed_crash_fraction, 0.0);
  EXPECT_EQ(mixed.value().isolations, 1);
}

TEST(FaultPlan, OverridesApply) {
  const auto plan =
      fault::parse_plan("mixed, drop=0.25 ,crash=0.5,max_attempts=9");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_DOUBLE_EQ(plan.value().drop_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.value().sed_crash_fraction, 0.5);
  EXPECT_EQ(plan.value().max_attempts, 9);
  // Untouched knobs keep the preset's values.
  EXPECT_DOUBLE_EQ(plan.value().duplicate_rate, 0.02);
}

TEST(FaultPlan, BadSpellingsAreErrors) {
  EXPECT_FALSE(fault::parse_plan("hurricane").is_ok());
  EXPECT_FALSE(fault::parse_plan("mixed,drop").is_ok());
  EXPECT_FALSE(fault::parse_plan("mixed,wind=0.5").is_ok());
  EXPECT_FALSE(fault::parse_plan("mixed,drop=lots").is_ok());
}

// ---------- the materialized schedule ----------

bool same_schedule(const std::vector<fault::ProcessFault>& a,
                   const std::vector<fault::ProcessFault>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].index != b[i].index ||
        a[i].at_s != b[i].at_s) {
      return false;
    }
  }
  return true;
}

TEST(FaultSchedule, DeterministicPerSeed) {
  const auto plan = fault::parse_plan("mixed,la_deaths=1").value();
  const auto first = fault::materialize(plan, 11, 6, 42);
  const auto replay = fault::materialize(plan, 11, 6, 42);
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(same_schedule(first, replay));
  const auto other = fault::materialize(plan, 11, 6, 43);
  EXPECT_FALSE(same_schedule(first, other));
}

TEST(FaultSchedule, VictimsDistinctWindowedAndPaired) {
  const auto plan = fault::parse_plan("mixed,crash=0.5,isolations=2").value();
  const auto schedule = fault::materialize(plan, 11, 6, 7);

  std::set<int> crashed;
  std::set<int> isolated;
  std::map<int, SimTime> crash_at;
  for (const auto& f : schedule) {
    EXPECT_GE(f.at_s, plan.fault_window_from_s);
    switch (f.kind) {
      case fault::ProcessFault::Kind::kSedCrash:
        EXPECT_LT(f.at_s, plan.fault_window_to_s);
        EXPECT_TRUE(crashed.insert(f.index).second)
            << "SED " << f.index << " crashed twice";
        crash_at[f.index] = f.at_s;
        break;
      case fault::ProcessFault::Kind::kSedRestart:
        EXPECT_EQ(crashed.count(f.index), 1u);
        EXPECT_DOUBLE_EQ(f.at_s,
                         crash_at[f.index] + plan.sed_restart_delay_s);
        break;
      case fault::ProcessFault::Kind::kSedIsolate:
        EXPECT_TRUE(isolated.insert(f.index).second);
        break;
      default:
        break;
    }
  }
  // ceil(0.5 * 11) crashes; partitions never hit a crash victim.
  EXPECT_EQ(crashed.size(), 6u);
  EXPECT_EQ(isolated.size(), 2u);
  for (const int sed : isolated) EXPECT_EQ(crashed.count(sed), 0u);
  // The schedule is sorted for the campaign's post_after loop.
  EXPECT_TRUE(std::is_sorted(schedule.begin(), schedule.end(),
                             [](const fault::ProcessFault& a,
                                const fault::ProcessFault& b) {
                               return a.at_s < b.at_s;
                             }));
}

// ---------- the injector ----------

net::FaultDecision decide(fault::Injector& injector, SimTime now,
                          net::NodeId src, net::NodeId dst,
                          std::uint32_t type, std::uint64_t seq) {
  net::Envelope envelope;
  envelope.type = type;
  return injector.on_message(now, src, dst, envelope, seq);
}

TEST(FaultInjector, DecisionsDependOnlyOnMessageCoordinates) {
  const auto plan =
      fault::parse_plan("drop-only,drop=0.3,dup=0.3,delay=0.3").value();
  fault::Injector forward(plan, 99);
  fault::Injector backward(plan, 99);

  // Query the same coordinates in opposite orders, with reverse-direction
  // traffic interleaved into one of the passes: every per-coordinate
  // decision must still match (nothing is drawn from a shared stream),
  // and at these rates some messages must actually be tampered with.
  std::vector<net::FaultDecision> fwd(201);
  std::vector<net::FaultDecision> bwd(201);
  for (int seq = 1; seq <= 200; ++seq) {
    fwd[static_cast<std::size_t>(seq)] =
        decide(forward, 10.0, 1, 2, 21, static_cast<std::uint64_t>(seq));
  }
  for (int seq = 200; seq >= 1; --seq) {
    const auto mirror = decide(backward, 10.0, 2, 1, 21,
                               static_cast<std::uint64_t>(seq));
    (void)mirror;  // direction matters, but must not disturb (1 -> 2)
    bwd[static_cast<std::size_t>(seq)] =
        decide(backward, 10.0, 1, 2, 21, static_cast<std::uint64_t>(seq));
  }
  int tampered = 0;
  for (int seq = 1; seq <= 200; ++seq) {
    const auto& a = fwd[static_cast<std::size_t>(seq)];
    const auto& b = bwd[static_cast<std::size_t>(seq)];
    EXPECT_EQ(a.drop, b.drop) << "seq " << seq;
    EXPECT_EQ(a.duplicate, b.duplicate) << "seq " << seq;
    EXPECT_EQ(a.extra_delay_s, b.extra_delay_s) << "seq " << seq;
    if (a.tampered()) ++tampered;
  }
  EXPECT_GT(tampered, 0);
}

TEST(FaultInjector, GraceWindowProtectsEarlyMessages) {
  const auto plan = fault::parse_plan("drop-only,drop=1.0").value();
  fault::Injector injector(plan, 5);
  for (int seq = 1; seq <= 50; ++seq) {
    const auto decision =
        decide(injector, plan.message_faults_from_s / 2.0, 1, 2, 21,
               static_cast<std::uint64_t>(seq));
    EXPECT_FALSE(decision.tampered());
  }
  EXPECT_TRUE(decide(injector, plan.message_faults_from_s + 1.0, 1, 2, 21, 1)
                  .drop);
}

TEST(FaultInjector, IsolationDropsBothDirectionsUntilHealed) {
  // Zero rates: only the partition can drop anything.
  const auto plan = fault::parse_plan("drop-only,drop=0,dup=0,delay=0");
  fault::Injector injector(plan.value(), 5);
  EXPECT_FALSE(decide(injector, 100.0, 3, 4, 21, 1).tampered());
  injector.isolate(3);
  EXPECT_TRUE(decide(injector, 100.0, 3, 4, 21, 2).drop);
  EXPECT_TRUE(decide(injector, 100.0, 4, 3, 21, 3).drop);
  EXPECT_FALSE(decide(injector, 100.0, 4, 5, 21, 4).tampered());
  injector.heal(3);
  EXPECT_FALSE(decide(injector, 100.0, 3, 4, 21, 5).tampered());
  EXPECT_EQ(injector.stats().dropped.load(), 2u);
}

// ---------- chaos regression: the zoom campaign survives ----------

constexpr int kChaosSeeds = 16;

struct ChaosOutcome {
  std::uint64_t digest = 0;
  double makespan = 0.0;
  std::uint64_t failed = 0;
  std::uint64_t resubmissions = 0;
  std::uint64_t evictions = 0;
};

ChaosOutcome run_chaos(const std::string& plan, std::uint64_t fault_seed) {
  workflow::CampaignConfig config;
  config.sub_simulations = 22;
  config.seed = 11;
  config.fault_plan = plan;
  config.fault_seed = fault_seed;
  const workflow::CampaignResult result =
      workflow::run_grid5000_campaign(config);
  return ChaosOutcome{result.science_digest, result.makespan,
                      result.failed_calls, result.resubmissions,
                      result.heartbeat_evictions};
}

TEST(Chaos, CampaignSurvivesEveryPlanWithFaultFreeScience) {
  const ChaosOutcome fault_free = run_chaos("", 1);
  EXPECT_EQ(fault_free.failed, 0u);
  EXPECT_NE(fault_free.digest, 0u);

  for (const char* plan : {"drop-only", "crash-only", "mixed"}) {
    for (std::uint64_t seed = 1; seed <= kChaosSeeds; ++seed) {
      const ChaosOutcome run = run_chaos(plan, seed);
      // run_grid5000_campaign GC_CHECKs completion of all 22 sub-sims;
      // reaching here means the campaign finished. The science must be
      // exactly the fault-free science, with no call left failed.
      ASSERT_EQ(run.failed, 0u) << plan << " seed " << seed;
      ASSERT_EQ(run.digest, fault_free.digest) << plan << " seed " << seed;
    }
  }
}

TEST(Chaos, SameSeedReplaysAreBitIdentical) {
  for (const char* plan : {"drop-only", "crash-only", "mixed"}) {
    for (std::uint64_t seed = 1; seed <= kChaosSeeds; ++seed) {
      const ChaosOutcome first = run_chaos(plan, seed);
      const ChaosOutcome replay = run_chaos(plan, seed);
      // Bitwise == on the double: same seed, same virtual history.
      ASSERT_EQ(first.makespan, replay.makespan) << plan << " seed " << seed;
      ASSERT_EQ(first.digest, replay.digest) << plan << " seed " << seed;
      ASSERT_EQ(first.resubmissions, replay.resubmissions)
          << plan << " seed " << seed;
      ASSERT_EQ(first.evictions, replay.evictions)
          << plan << " seed " << seed;
    }
  }
}

// ---------- at-most-once execution under retries ----------

diet::ProfileDesc double_desc() {
  diet::ProfileDesc desc("double", 0, 0, 1);
  desc.arg(0).type = diet::DataType::kScalar;
  desc.arg(0).base = diet::BaseType::kInt;
  desc.arg(1).type = diet::DataType::kScalar;
  desc.arg(1).base = diet::BaseType::kInt;
  return desc;
}

void register_double(diet::ServiceTable& services,
                     double modeled_seconds = 10.0) {
  diet::SolveFn solve = [modeled_seconds](diet::ServiceContext& ctx) {
    ctx.compute(
        modeled_seconds,
        [&ctx]() {
          const auto in = ctx.profile().arg(0).get_scalar<std::int32_t>();
          if (!in.is_ok()) return 1;
          ctx.profile().arg(1).set_scalar<std::int32_t>(
              in.value() * 2, diet::BaseType::kInt,
              diet::Persistence::kVolatile);
          return 0;
        },
        [&ctx](int rc) { ctx.finish(rc); });
  };
  ASSERT_TRUE(services.add(double_desc(), std::move(solve)).is_ok());
}

diet::DeploymentSpec small_spec() {
  diet::DeploymentSpec spec;
  spec.ma_node = 0;
  for (int la = 0; la < 2; ++la) {
    diet::DeploymentSpec::LaSpec l;
    l.name = "LA" + std::to_string(la);
    l.node = static_cast<net::NodeId>(1 + la);
    for (int s = 0; s < 2; ++s) {
      diet::DeploymentSpec::SedSpec sed;
      sed.name = "SeD" + std::to_string(la) + std::to_string(s);
      sed.node = static_cast<net::NodeId>(3 + la * 2 + s);
      sed.machines = 4;
      l.sed_indexes.push_back(static_cast<int>(spec.seds.size()));
      spec.seds.push_back(sed);
    }
    spec.las.push_back(l);
  }
  return spec;
}

/// Fuzzes client retries against injected drops and duplicates, then
/// checks the at-most-once oracle from the outside: across every SED's
/// job log, no wire call id may appear twice (a duplicated delivery must
/// be deduplicated; a retry must run under a fresh id). The GC_CHECK
/// UniqueIds invariant inside Sed::start_next guards the same property
/// from the inside and would abort this test on violation.
TEST(AtMostOnce, RetriesNeverExecuteACallIdTwice) {
  for (std::uint64_t fault_seed = 1; fault_seed <= 6; ++fault_seed) {
    const auto plan =
        fault::parse_plan("drop-only,drop=0.15,dup=0.2,delay=0.1,from_s=0.5")
            .value();
    fault::Injector injector(plan, fault_seed);

    des::Engine engine;
    net::UniformTopology topology(5e-3, 1.25e8);
    net::SimEnv env(engine, topology);
    env.set_fault_hook(&injector);
    naming::Registry registry;
    diet::ServiceTable services;
    register_double(services);
    diet::Deployment deployment(env, registry, services, small_spec());

    diet::Client::Tuning tuning;
    tuning.max_attempts = 8;
    tuning.attempt_timeout_s = 40.0;
    tuning.backoff_base_s = 2.0;
    diet::Client client("client", tuning);
    env.attach(client, 0);
    client.connect(registry.resolve("MA1").value());
    engine.run_until(engine.now() + 1.0);

    int completions = 0;
    int ok = 0;
    for (int i = 0; i < 24; ++i) {
      diet::Profile profile("double", 0, 0, 1);
      profile.arg(0).set_scalar<std::int32_t>(i, diet::BaseType::kInt,
                                              diet::Persistence::kVolatile);
      profile.arg(1).desc.type = diet::DataType::kScalar;
      profile.arg(1).desc.base = diet::BaseType::kInt;
      client.call_async(std::move(profile),
                        [&](const gc::Status& status, diet::Profile&) {
                          ++completions;
                          if (status.is_ok()) ++ok;
                        });
    }
    engine.run();

    EXPECT_EQ(completions, 24) << "fault seed " << fault_seed;
    EXPECT_GT(ok, 0) << "fault seed " << fault_seed;

    std::set<std::uint64_t> executed;
    for (std::size_t s = 0; s < deployment.sed_count(); ++s) {
      for (const auto& job : deployment.sed(s).job_log()) {
        EXPECT_TRUE(executed.insert(job.call_id).second)
            << "call id " << job.call_id << " executed twice (fault seed "
            << fault_seed << ")";
      }
    }
    EXPECT_GE(executed.size(), static_cast<std::size_t>(ok));
  }
}

// ---------- sequential calls under a mixed message-fault load ----------

/// Submits `profile` and runs the engine until the call completes (or the
/// calendar empties); returns the call's status and leaves the merged
/// result in `profile`.
gc::Status run_call(des::Engine& engine, diet::Client& client,
                    diet::Profile& profile, double deadline_s) {
  bool done = false;
  gc::Status status = make_error(ErrorCode::kInternal, "never completed");
  client.call_async(
      profile,
      [&](const gc::Status& s, diet::Profile& result) {
        status = s;
        profile = result;
        done = true;
      },
      deadline_s);
  while (!done && engine.step()) {
  }
  return status;
}

TEST(MixedFault, SequentialCallsSurviveDropsAndDuplicates) {
  // Registration happens well inside the grace window; only the
  // steady-state call traffic is tampered with.
  const auto plan =
      fault::parse_plan("drop-only,drop=0.1,dup=0.15,delay=0,from_s=1.0")
          .value();
  fault::Injector injector(plan, 3);

  des::Engine engine;
  net::UniformTopology topology(1e-4, 1e9);
  net::SimEnv env(engine, topology);
  env.set_fault_hook(&injector);
  naming::Registry registry;
  diet::ServiceTable services;
  register_double(services, 0.0);
  diet::Deployment deployment(env, registry, services, small_spec());

  diet::Client::Tuning tuning;
  tuning.max_attempts = 8;
  tuning.attempt_timeout_s = 1.0;
  tuning.backoff_base_s = 0.05;
  diet::Client client("client", tuning);
  env.attach(client, 0);
  client.connect(registry.resolve("MA1").value());
  engine.run_until(1.1);

  for (int i = 0; i < 6; ++i) {
    diet::Profile profile("double", 0, 0, 1);
    profile.arg(0).set_scalar<std::int32_t>(i, diet::BaseType::kInt,
                                            diet::Persistence::kVolatile);
    profile.arg(1).desc.type = diet::DataType::kScalar;
    profile.arg(1).desc.base = diet::BaseType::kInt;
    const gc::Status status =
        run_call(engine, client, profile, /*deadline_s=*/20.0);
    EXPECT_TRUE(status.is_ok()) << "call " << i << ": " << status.to_string();
    if (status.is_ok()) {
      EXPECT_EQ(profile.arg(1).get_scalar<std::int32_t>().value(), i * 2);
    }
  }
  EXPECT_GT(injector.stats().dropped.load(), 0u);
  EXPECT_GT(injector.stats().duplicated.load(), 0u);
}

// ---------- the client deadline against a dead SED ----------

TEST(ClientDeadline, CrashedSedFailsCallWithinDeadline) {
  des::Engine engine;
  net::UniformTopology topology(1e-4, 1e9);
  net::SimEnv env(engine, topology);
  naming::Registry registry;
  diet::ServiceTable services;

  // The SED accepts the call and then never replies — the observable
  // behaviour of a SED that crashed mid-execution.
  diet::SolveFn black_hole = [](diet::ServiceContext& ctx) { (void)ctx; };
  ASSERT_TRUE(services.add(double_desc(), std::move(black_hole)).is_ok());

  diet::DeploymentSpec spec;
  spec.ma_node = 0;
  diet::DeploymentSpec::LaSpec la;
  la.name = "LA";
  la.node = 1;
  diet::DeploymentSpec::SedSpec sed;
  sed.name = "SeD";
  sed.node = 2;
  la.sed_indexes.push_back(0);
  spec.seds.push_back(sed);
  spec.las.push_back(la);
  diet::Deployment deployment(env, registry, services, spec);

  diet::Client client("client");
  env.attach(client, 0);
  client.connect(registry.resolve("MA1").value());
  engine.run();

  diet::Profile profile("double", 0, 0, 1);
  profile.arg(0).set_scalar<std::int32_t>(21, diet::BaseType::kInt,
                                          diet::Persistence::kVolatile);
  profile.arg(1).desc.type = diet::DataType::kScalar;
  profile.arg(1).desc.base = diet::BaseType::kInt;

  const gc::Status status = run_call(engine, client, profile, 0.3);

  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status.to_string();
  // Completed because the deadline fired, not because anything replied:
  // 0.3 s of virtual time after the submit, with the SED still silent.
  ASSERT_EQ(client.records().size(), 1u);
  EXPECT_LE(engine.now() - client.records()[0].submitted, 0.3 + 1e-12);
  EXPECT_LT(client.records()[0].completed, 0.0);
}

// ---------- heartbeat eviction determinism (via the trace) ----------

struct ScopedTrace {
  ScopedTrace() {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_enabled(true);
  }
  ~ScopedTrace() {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear();
  }
};

/// Runs a crash-heavy campaign with tracing on and returns every
/// heartbeat-eviction instant as (agent track, dead child, virtual time).
std::vector<std::tuple<std::string, std::string, double>> eviction_instants(
    std::uint64_t fault_seed) {
  ScopedTrace trace;
  workflow::CampaignConfig config;
  config.sub_simulations = 22;
  config.seed = 11;
  config.fault_plan = "crash-only";
  config.fault_seed = fault_seed;
  const workflow::CampaignResult result =
      workflow::run_grid5000_campaign(config);
  EXPECT_EQ(result.failed_calls, 0u);

  std::vector<std::tuple<std::string, std::string, double>> out;
  for (const auto& event : obs::Tracer::instance().events()) {
    if (event.name.rfind("hb-dead:", 0) == 0) {
      out.emplace_back(event.track, event.name, event.ts);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Chaos, HeartbeatEvictionTimestampsAreDeterministic) {
  const auto first = eviction_instants(4);
  const auto replay = eviction_instants(4);
  EXPECT_FALSE(first.empty());
  ASSERT_EQ(first.size(), replay.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(std::get<0>(first[i]), std::get<0>(replay[i]));
    EXPECT_EQ(std::get<1>(first[i]), std::get<1>(replay[i]));
    // Bitwise-equal virtual timestamps: the watchdog fired at the same
    // instant on both runs.
    EXPECT_EQ(std::get<2>(first[i]), std::get<2>(replay[i]));
  }
  // The instants survive into the exported Perfetto JSON (the trace is
  // cleared per run, so re-run one traced campaign and export it).
  ScopedTrace trace;
  workflow::CampaignConfig config;
  config.sub_simulations = 22;
  config.seed = 11;
  config.fault_plan = "crash-only";
  config.fault_seed = 4;
  (void)workflow::run_grid5000_campaign(config);
  const std::string json = obs::Tracer::instance().chrome_trace_json();
  EXPECT_NE(json.find("hb-dead:"), std::string::npos);
}

}  // namespace
}  // namespace gc
