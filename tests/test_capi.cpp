// Tests for the paper-style C API (DIET_client.h / DIET_server.h veneer)
// including the asynchronous GridRPC family, on a SimEnv: the blocking
// entries run the engine until what they wait for has happened.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <vector>

#include "des/engine.hpp"
#include "diet/agent.hpp"
#include "diet/capi.hpp"
#include "net/fault.hpp"
#include "sched/policy.hpp"

namespace {

int solve_double(diet_profile_t* pb) {
  const std::int32_t* in = nullptr;
  if (diet_scalar_get(diet_parameter(pb, 0), &in, nullptr) != 0) return 1;
  const std::int32_t out = *in * 2;
  diet_scalar_set(diet_parameter(pb, 1), &out, DIET_VOLATILE, DIET_INT);
  return 0;
}

int solve_fail(diet_profile_t*) { return 42; }

diet_profile_t* make_profile(const char* name, std::int32_t value) {
  diet_profile_t* profile = diet_profile_alloc(name, 0, 0, 1);
  diet_scalar_set(diet_parameter(profile, 0), &value, DIET_VOLATILE,
                  DIET_INT);
  // OUT declared without value.
  diet_parameter(profile, 1)->desc.type = gc::diet::DataType::kScalar;
  diet_parameter(profile, 1)->desc.base = gc::diet::BaseType::kInt;
  return profile;
}

/// One full in-process deployment bound to the C API: MA and LA on a
/// SimEnv, plus one SED once register_services() ran diet_SeD.
struct CapiWorld {
  CapiWorld()
      : dir((std::filesystem::temp_directory_path() /
             ("gc_capi_" + std::to_string(::getpid())))
                .string()),
        topology(1e-4, 1e9),
        env(engine, topology) {
    std::filesystem::create_directories(dir);
    gc::diet::capi::bind_process(env, registry, 0);

    ma = std::make_unique<gc::diet::Agent>(
        gc::diet::Agent::Kind::kMaster, "MA1",
        gc::sched::make_default_policy(), gc::diet::AgentTuning{}, 1);
    env.attach(*ma, 1);
    registry.rebind("MA1", ma->endpoint());
    la = std::make_unique<gc::diet::Agent>(
        gc::diet::Agent::Kind::kLocal, "LA1",
        gc::sched::make_default_policy(), gc::diet::AgentTuning{}, 2);
    env.attach(*la, 2);
    registry.rebind("LA1", la->endpoint());
    la->register_at(ma->endpoint());

    sed_cfg = dir + "/sed.cfg";
    std::ofstream(sed_cfg) << "parentName = LA1\nname = SeD-capi\n"
                              "nodeId = 3\nhostPower = 1.0\nmachines = 1\n";
    client_cfg = dir + "/client.cfg";
    std::ofstream(client_cfg) << "MAName = MA1\n";
  }

  ~CapiWorld() {
    diet_finalize();
    gc::diet::capi::unbind_process();
    std::filesystem::remove_all(dir);
  }

  void register_services() {
    add_services();
    launch_sed();
  }

  /// The service table behind register_services(): "double" and
  /// "always_fails".
  void add_services() {
    diet_service_table_init(4);
    diet_profile_desc_t* desc = diet_profile_desc_alloc("double", 0, 0, 1);
    diet_generic_desc_set(diet_parameter(desc, 0), DIET_SCALAR, DIET_INT);
    diet_generic_desc_set(diet_parameter(desc, 1), DIET_SCALAR, DIET_INT);
    ASSERT_EQ(diet_service_table_add(desc, nullptr, solve_double), 0);
    diet_profile_desc_t* fail_desc =
        diet_profile_desc_alloc("always_fails", 0, 0, 1);
    diet_generic_desc_set(diet_parameter(fail_desc, 0), DIET_SCALAR, DIET_INT);
    diet_generic_desc_set(diet_parameter(fail_desc, 1), DIET_SCALAR, DIET_INT);
    ASSERT_EQ(diet_service_table_add(fail_desc, nullptr, solve_fail), 0);
    diet_profile_desc_free(desc);
    diet_profile_desc_free(fail_desc);
  }

  void launch_sed() { ASSERT_EQ(diet_SeD(sed_cfg.c_str(), 0, nullptr), 0); }

  std::string dir;
  std::string sed_cfg;
  std::string client_cfg;
  gc::des::Engine engine;
  gc::net::UniformTopology topology;
  gc::net::SimEnv env;
  gc::naming::Registry registry;
  std::unique_ptr<gc::diet::Agent> ma;
  std::unique_ptr<gc::diet::Agent> la;
};

class CapiTest : public ::testing::Test {
 protected:
  CapiWorld w_;
};

TEST_F(CapiTest, InitializeRequiresValidConfig) {
  EXPECT_NE(diet_initialize("/nonexistent.cfg", 0, nullptr), 0);
  const std::string bad = w_.dir + "/bad.cfg";
  std::ofstream(bad) << "MAName = NoSuchMA\n";
  EXPECT_NE(diet_initialize(bad.c_str(), 0, nullptr), 0);
  EXPECT_EQ(diet_initialize(w_.client_cfg.c_str(), 0, nullptr), 0);
}

TEST_F(CapiTest, SynchronousCallRoundtrip) {
  w_.register_services();
  ASSERT_EQ(diet_initialize(w_.client_cfg.c_str(), 0, nullptr), 0);
  w_.engine.run();

  diet_profile_t* profile = make_profile("double", 21);
  ASSERT_EQ(diet_call(profile), 0);
  const std::int32_t* result = nullptr;
  ASSERT_EQ(diet_scalar_get(diet_parameter(profile, 1), &result, nullptr), 0);
  EXPECT_EQ(*result, 42);
  diet_profile_free(profile);
}

TEST_F(CapiTest, FailingSolveSurfacesError) {
  w_.register_services();
  ASSERT_EQ(diet_initialize(w_.client_cfg.c_str(), 0, nullptr), 0);
  w_.engine.run();
  diet_profile_t* profile = make_profile("always_fails", 1);
  EXPECT_NE(diet_call(profile), 0);
  diet_profile_free(profile);
}

TEST_F(CapiTest, GrpcAliasesWork) {
  w_.register_services();
  ASSERT_EQ(grpc_initialize(w_.client_cfg.c_str()), 0);
  w_.engine.run();
  diet_profile_t* profile = make_profile("double", 5);
  ASSERT_EQ(grpc_call(profile), 0);
  const std::int32_t* result = nullptr;
  diet_scalar_get(diet_parameter(profile, 1), &result, nullptr);
  EXPECT_EQ(*result, 10);
  diet_profile_free(profile);
  EXPECT_EQ(grpc_finalize(), 0);
}

TEST_F(CapiTest, AsyncCallAndWait) {
  w_.register_services();
  ASSERT_EQ(diet_initialize(w_.client_cfg.c_str(), 0, nullptr), 0);
  w_.engine.run();

  diet_profile_t* profile = make_profile("double", 100);
  diet_reqID_t id = 0;
  ASSERT_EQ(diet_call_async(profile, &id), 0);
  EXPECT_GT(id, 0u);
  EXPECT_EQ(diet_probe(id), 1);  // submitted, engine not yet run
  EXPECT_EQ(diet_wait(id), 0);
  EXPECT_EQ(diet_probe(id), 0);  // completed
  const std::int32_t* result = nullptr;
  diet_scalar_get(diet_parameter(profile, 1), &result, nullptr);
  EXPECT_EQ(*result, 200);
  EXPECT_EQ(diet_cancel(id), 0);
  EXPECT_EQ(diet_probe(id), -1);  // forgotten
  EXPECT_EQ(diet_wait(id), -1);
  diet_profile_free(profile);
}

TEST_F(CapiTest, AsyncBurstWaitAll) {
  // The paper's client pattern: "he requests simultaneously 100
  // sub-simulations" — here a burst of 8 async calls + wait_all.
  w_.register_services();
  ASSERT_EQ(diet_initialize(w_.client_cfg.c_str(), 0, nullptr), 0);
  w_.engine.run();

  std::vector<diet_profile_t*> profiles;
  std::vector<diet_reqID_t> ids;
  for (int i = 0; i < 8; ++i) {
    profiles.push_back(make_profile("double", i));
    diet_reqID_t id = 0;
    ASSERT_EQ(diet_call_async(profiles.back(), &id), 0);
    ids.push_back(id);
  }
  EXPECT_EQ(diet_wait_all(), 0);
  for (int i = 0; i < 8; ++i) {
    const std::int32_t* result = nullptr;
    diet_scalar_get(diet_parameter(profiles[static_cast<size_t>(i)], 1),
                    &result, nullptr);
    EXPECT_EQ(*result, 2 * i);
    diet_profile_free(profiles[static_cast<size_t>(i)]);
  }
}

TEST_F(CapiTest, WaitAnyReturnsACompletedRequest) {
  w_.register_services();
  ASSERT_EQ(diet_initialize(w_.client_cfg.c_str(), 0, nullptr), 0);
  w_.engine.run();

  diet_reqID_t winner = 0;
  EXPECT_EQ(diet_wait_any(&winner), -1);  // nothing outstanding
  diet_profile_t* a = make_profile("double", 1);
  diet_profile_t* b = make_profile("double", 2);
  diet_reqID_t id_a = 0;
  diet_reqID_t id_b = 0;
  ASSERT_EQ(diet_call_async(a, &id_a), 0);
  ASSERT_EQ(diet_call_async(b, &id_b), 0);
  EXPECT_EQ(diet_wait_any(&winner), 0);
  EXPECT_TRUE(winner == id_a || winner == id_b);
  EXPECT_EQ(diet_probe(winner), 0);
  EXPECT_EQ(diet_wait_all(), 0);
  diet_profile_free(a);
  diet_profile_free(b);
}

TEST_F(CapiTest, ServiceTablePrintsAndRejectsDuplicates) {
  w_.register_services();
  diet_print_service_table();
  diet_profile_desc_t* dup = diet_profile_desc_alloc("double", 0, 0, 1);
  diet_generic_desc_set(diet_parameter(dup, 0), DIET_SCALAR, DIET_INT);
  diet_generic_desc_set(diet_parameter(dup, 1), DIET_SCALAR, DIET_INT);
  EXPECT_NE(diet_service_table_add(dup, nullptr, solve_double), 0);
  diet_profile_desc_free(dup);
}

TEST_F(CapiTest, FreeDataClearsValue) {
  diet_profile_t* profile = diet_profile_alloc("x", 0, 0, 1);
  const std::int32_t v = 7;
  diet_scalar_set(diet_parameter(profile, 0), &v, DIET_VOLATILE, DIET_INT);
  EXPECT_TRUE(diet_parameter(profile, 0)->has_value());
  EXPECT_EQ(diet_free_data(diet_parameter(profile, 0)), 0);
  EXPECT_FALSE(diet_parameter(profile, 0)->has_value());
  EXPECT_NE(diet_free_data(nullptr), 0);
  diet_profile_free(profile);
}

TEST_F(CapiTest, FileArgumentsThroughCApi) {
  w_.register_services();
  ASSERT_EQ(diet_initialize(w_.client_cfg.c_str(), 0, nullptr), 0);

  const std::string payload = w_.dir + "/input.bin";
  std::ofstream(payload) << std::string(2048, 'z');

  diet_profile_t* profile = diet_profile_alloc("unused", 0, 0, 1);
  ASSERT_EQ(diet_file_set(diet_parameter(profile, 0), DIET_VOLATILE,
                          payload.c_str()),
            0);
  std::size_t size = 0;
  char* path = nullptr;
  ASSERT_EQ(diet_file_get(diet_parameter(profile, 0), nullptr, &size, &path),
            0);
  EXPECT_EQ(size, 2048u);
  EXPECT_STREQ(path, payload.c_str());
  std::free(path);
  // NULL-path OUT declaration (Section 4.3.2).
  ASSERT_EQ(diet_file_set(diet_parameter(profile, 1), DIET_VOLATILE, nullptr),
            0);
  EXPECT_FALSE(diet_parameter(profile, 1)->has_value());
  diet_profile_free(profile);
}

// ---------- what the engine-driven client adds ----------

/// Drops every message: the hierarchy goes silent.
struct DropAll final : gc::net::FaultHook {
  gc::net::FaultDecision on_message(gc::SimTime, gc::net::NodeId,
                                    gc::net::NodeId, const gc::net::Envelope&,
                                    std::uint64_t) override {
    gc::net::FaultDecision decision;
    decision.drop = true;
    return decision;
  }
};

TEST_F(CapiTest, CallFailsWhenTheCalendarEmptiesFirst) {
  w_.register_services();
  ASSERT_EQ(diet_initialize(w_.client_cfg.c_str(), 0, nullptr), 0);
  w_.engine.run();
  DropAll drop_all;
  w_.env.set_fault_hook(&drop_all);

  // No deadline and no retries: once the submit is dropped nothing is
  // left to run, and the call must come back instead of waiting forever.
  diet_profile_t* profile = make_profile("double", 21);
  EXPECT_EQ(diet_call(profile), 1);
  EXPECT_EQ(w_.engine.events_pending(), 0u);
  diet_reqID_t id = 0;
  ASSERT_EQ(diet_call_async(profile, &id), 0);
  EXPECT_EQ(diet_wait(id), 1);
  EXPECT_EQ(diet_wait_all(), 1);
  diet_reqID_t winner = 0;
  EXPECT_EQ(diet_wait_any(&winner), -1);
  w_.env.set_fault_hook(nullptr);
  diet_profile_free(profile);
}

gc::des::Engine* g_nested_engine = nullptr;
int g_nested_rc = -2;
std::uint64_t g_nested_events = 0;

/// A solve function that is itself a client: its diet_call runs inside
/// the SED's completion event.
int solve_nested(diet_profile_t* pb) {
  diet_profile_t* inner = make_profile("double", 4);
  const std::uint64_t before = g_nested_engine->events_executed();
  g_nested_rc = diet_call(inner);
  g_nested_events = g_nested_engine->events_executed() - before;
  diet_profile_free(inner);
  const std::int32_t out = 7;
  diet_scalar_set(diet_parameter(pb, 1), &out, DIET_VOLATILE, DIET_INT);
  return 0;
}

TEST_F(CapiTest, CallFromInsideASolveFailsAndTheOuterCallCompletes) {
  w_.add_services();
  diet_profile_desc_t* desc = diet_profile_desc_alloc("nested", 0, 0, 1);
  diet_generic_desc_set(diet_parameter(desc, 0), DIET_SCALAR, DIET_INT);
  diet_generic_desc_set(diet_parameter(desc, 1), DIET_SCALAR, DIET_INT);
  ASSERT_EQ(diet_service_table_add(desc, nullptr, solve_nested), 0);
  diet_profile_desc_free(desc);
  w_.launch_sed();
  ASSERT_EQ(diet_initialize(w_.client_cfg.c_str(), 0, nullptr), 0);
  w_.engine.run();

  g_nested_engine = &w_.engine;
  g_nested_rc = -2;
  diet_profile_t* profile = make_profile("nested", 1);
  EXPECT_EQ(diet_call(profile), 0);
  EXPECT_EQ(g_nested_rc, 1) << "the inner diet_call did not fail";
  EXPECT_EQ(g_nested_events, 0u) << "the inner diet_call ran the engine";
  const std::int32_t* result = nullptr;
  ASSERT_EQ(diet_scalar_get(diet_parameter(profile, 1), &result, nullptr), 0);
  EXPECT_EQ(*result, 7);
  diet_profile_free(profile);
  g_nested_engine = nullptr;
}

/// Submits a burst of `n` calls and drains it with diet_wait_any,
/// forgetting each winner; returns the winners in order.
std::vector<diet_reqID_t> wait_any_order(int n) {
  CapiWorld world;
  world.register_services();
  EXPECT_EQ(diet_initialize(world.client_cfg.c_str(), 0, nullptr), 0);
  std::vector<diet_profile_t*> profiles;
  for (int i = 0; i < n; ++i) {
    profiles.push_back(make_profile(i % 3 == 2 ? "always_fails" : "double",
                                    i));
    diet_reqID_t id = 0;
    EXPECT_EQ(diet_call_async(profiles.back(), &id), 0);
  }
  std::vector<diet_reqID_t> order;
  for (int i = 0; i < n; ++i) {
    diet_reqID_t winner = 0;
    EXPECT_NE(diet_wait_any(&winner), -1);
    order.push_back(winner);
    EXPECT_EQ(diet_cancel(winner), 0);
  }
  for (diet_profile_t* p : profiles) diet_profile_free(p);
  return order;
}

TEST(CapiWaitAny, SameBurstSameWinners) {
  const std::vector<diet_reqID_t> first = wait_any_order(9);
  ASSERT_EQ(first.size(), 9u);
  EXPECT_EQ(std::set<diet_reqID_t>(first.begin(), first.end()).size(), 9u);
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(wait_any_order(9), first) << "run " << run + 2;
  }
}

}  // namespace
