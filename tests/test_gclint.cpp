// Tests for the gclint rules: one seeded violation per rule, the scoping
// exemptions, comment/string immunity, and the suppression syntax.
#include <gtest/gtest.h>

#include <algorithm>

#include "lint.hpp"

namespace {

using gclint::FileInput;
using gclint::Finding;

std::vector<Finding> lint_one(const std::string& path,
                              const std::string& content) {
  return gclint::lint({FileInput{path, content}});
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// ---------- rand ----------

TEST(Gclint, FlagsRandOutsideRngModule) {
  const auto findings =
      lint_one("src/halo/h.cpp", "int f() { return std::rand(); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rand");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(Gclint, AllowsRandomDeviceInsideRngModule) {
  const auto findings = lint_one(
      "src/common/rng.hpp", "std::uint64_t seed() { std::random_device d; "
                            "return d(); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Gclint, FlagsRandomDeviceElsewhere) {
  EXPECT_TRUE(has_rule(
      lint_one("src/sched/p.cpp", "std::random_device d;\n"), "rand"));
}

// ---------- wallclock ----------

TEST(Gclint, FlagsWallClockInSimPath) {
  for (const char* dir : {"des", "net", "diet", "ramses"}) {
    const auto findings = lint_one(
        std::string("src/") + dir + "/x.cpp",
        "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_TRUE(has_rule(findings, "wallclock")) << dir;
  }
}

TEST(Gclint, AllowsWallClockOutsideSimPath) {
  const auto findings = lint_one(
      "src/obs/trace.cpp", "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(findings.empty());
}

// ---------- thread ----------

TEST(Gclint, FlagsRawThreadOutsideParallel) {
  EXPECT_TRUE(has_rule(
      lint_one("src/diet/x.cpp", "std::thread t([]{});\n"), "thread"));
}

TEST(Gclint, AllowsThreadInsideParallel) {
  EXPECT_TRUE(
      lint_one("src/parallel/pool.cpp", "std::thread t([]{});\n").empty());
}

// ---------- unchecked-status ----------

TEST(Gclint, FlagsDiscardedStatusCall) {
  const std::string src =
      "gc::Status save(int v);\n"
      "void f() {\n"
      "  save(1);\n"
      "}\n";
  const auto findings = lint_one("src/io/x.cpp", src);
  ASSERT_TRUE(has_rule(findings, "unchecked-status"));
  EXPECT_EQ(findings[0].line, 3);
}

TEST(Gclint, AcceptsConsumedStatusCall) {
  const std::string src =
      "gc::Status save(int v);\n"
      "void f() {\n"
      "  auto s = save(1);\n"
      "  if (save(2).is_ok()) return;\n"
      "  return save(3);\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/io/x.cpp", src).empty());
}

TEST(Gclint, SkipsNamesWithAmbiguousReturnTypes) {
  // `add` is declared both Status- and void-returning somewhere in the
  // set: token matching cannot attribute a call, so it is not flagged.
  const std::vector<FileInput> files = {
      {"src/a.hpp", "gc::Status add(int);\n"},
      {"src/b.hpp", "void add(double);\n"},
      {"src/c.cpp", "void f() { add(1); }\n"},
  };
  EXPECT_TRUE(gclint::lint(files).empty());
}

TEST(Gclint, CollectsStatusNamesAcrossFiles) {
  const std::vector<FileInput> files = {
      {"src/api.hpp", "Result<int> parse(const std::string& s);\n"},
      {"src/use.cpp", "void f() {\n  parse(\"x\");\n}\n"},
  };
  EXPECT_TRUE(has_rule(gclint::lint(files), "unchecked-status"));
}

// ---------- unordered-iter ----------

TEST(Gclint, FlagsUnorderedIterationIntoSerializedOutput) {
  const std::string src =
      "std::unordered_map<int, int> m_;\n"
      "void f(net::Writer& w) {\n"
      "  for (const auto& kv : m_) {\n"
      "    w.encode(kv.second);\n"
      "  }\n"
      "}\n";
  const auto findings = lint_one("src/diet/x.cpp", src);
  ASSERT_TRUE(has_rule(findings, "unordered-iter"));
  EXPECT_EQ(findings[0].line, 3);
}

TEST(Gclint, AllowsOrderedIterationIntoSerializedOutput) {
  const std::string src =
      "std::map<int, int> m_;\n"
      "void f(net::Writer& w) {\n"
      "  for (const auto& kv : m_) w.encode(kv.second);\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/diet/x.cpp", src).empty());
}

TEST(Gclint, AllowsUnorderedIterationWithoutSink) {
  const std::string src =
      "std::unordered_map<int, int> m_;\n"
      "int f() {\n"
      "  int total = 0;\n"
      "  for (const auto& kv : m_) total += kv.second;\n"
      "  return total;\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/diet/x.cpp", src).empty());
}

// ---------- dtm-store ----------

TEST(Gclint, FlagsDirectDataManagerStoreOutsideDtm) {
  const std::string src =
      "dtm::DataManager cache_;\n"
      "void f(const std::string& id, dtm::Blob blob) {\n"
      "  cache_.store(id, std::move(blob));\n"
      "}\n";
  const auto findings = lint_one("src/diet/agent.cpp", src);
  ASSERT_TRUE(has_rule(findings, "dtm-store"));
  EXPECT_EQ(findings[0].line, 3);
}

TEST(Gclint, FlagsStoreThroughAccessorChain) {
  EXPECT_TRUE(has_rule(
      lint_one("src/workflow/campaign.cpp",
               "void f(diet::Sed& sed) { sed.data_manager().store(id, b); }\n"),
      "dtm-store"));
}

TEST(Gclint, AllowsStoreInsideDtmAndSed) {
  const std::string src =
      "dtm::DataManager store_;\n"
      "void f() { store_.store(id, std::move(blob)); }\n";
  EXPECT_TRUE(lint_one("src/dtm/datamgr.cpp", src).empty());
  EXPECT_TRUE(lint_one("src/diet/sed.cpp", src).empty());
}

TEST(Gclint, IgnoresAtomicStore) {
  // .store() on names never declared DataManager (atomics) is invisible.
  const std::string src =
      "std::atomic<bool> enabled_;\n"
      "void f() { enabled_.store(true, std::memory_order_relaxed); }\n";
  EXPECT_TRUE(lint_one("src/obs/x.hpp", src).empty());
}

// ---------- hot-string ----------

TEST(Gclint, FlagsToStringOnDesHotPath) {
  const std::string src =
      "void f(int type) {\n"
      "  track = std::to_string(type);\n"
      "}\n";
  for (const char* path : {"src/des/engine.cpp", "src/net/simenv.cpp"}) {
    const auto findings = lint_one(path, src);
    ASSERT_TRUE(has_rule(findings, "hot-string")) << path;
    EXPECT_EQ(findings[0].line, 2);
  }
}

TEST(Gclint, FlagsLiteralConcatenationOnDesHotPath) {
  EXPECT_TRUE(has_rule(
      lint_one("src/des/engine.cpp",
               "void f() { name = \"ev:\" + suffix; }\n"),
      "hot-string"));
}

TEST(Gclint, AllowsHotStringOutsideHotPath) {
  // diet/, obs/, workflow/ build strings freely; only the DES kernel and
  // the SimEnv message path are rate-critical.
  EXPECT_TRUE(lint_one("src/diet/agent.cpp",
                       "void f(int t) { s = std::to_string(t); }\n")
                  .empty());
  // net/ files other than simenv.cpp (e.g. flow.cpp) are out of scope.
  EXPECT_TRUE(lint_one("src/net/flow.cpp",
                       "void f(int t) { s = std::to_string(t); }\n")
                  .empty());
}

TEST(Gclint, AllowsHotStringInsideTracingGuard) {
  const std::string src =
      "void f(int type) {\n"
      "  if (obs::tracing()) {\n"
      "    trace(\"msg:\" + std::to_string(type));\n"
      "  }\n"
      "  if (obs::metrics_on()) {\n"
      "    m.counter(\"x_\" + std::to_string(type)).inc();\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/net/simenv.cpp", src).empty());
}

TEST(Gclint, FlagsHotStringAfterGuardBlockCloses) {
  const std::string src =
      "void f(int type) {\n"
      "  if (obs::tracing()) {\n"
      "    trace(std::to_string(type));\n"
      "  }\n"
      "  name = std::to_string(type);\n"
      "}\n";
  const auto findings = lint_one("src/des/engine.cpp", src);
  ASSERT_TRUE(has_rule(findings, "hot-string"));
  EXPECT_EQ(findings[0].line, 5);
}

TEST(Gclint, HotStringSuppressionWorks) {
  const std::string src =
      "void f(int n) {\n"
      "  // gclint: allow(hot-string) built once per stream, cached\n"
      "  label = \"n\" + std::to_string(n);\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/net/simenv.cpp", src).empty());
}

// ---------- mc-blocking ----------

TEST(Gclint, FlagsSleepInMiddleware) {
  for (const char* dir : {"diet", "dtm"}) {
    const auto findings = lint_one(
        std::string("src/") + dir + "/x.cpp",
        "void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); "
        "}\n");
    EXPECT_TRUE(has_rule(findings, "mc-blocking")) << dir;
  }
}

TEST(Gclint, FlagsUnboundedWaitInMiddleware) {
  EXPECT_TRUE(has_rule(
      lint_one("src/diet/x.cpp", "cv.wait(lock, [] { return done; });\n"),
      "mc-blocking"));
  EXPECT_TRUE(has_rule(
      lint_one("src/dtm/x.cpp", "sem->acquire();\n"), "mc-blocking"));
  EXPECT_TRUE(has_rule(
      lint_one("src/diet/x.cpp", "return future.get();\n"), "mc-blocking"));
}

TEST(Gclint, AllowsBoundedWaitAndNonFutureGet) {
  // wait_for has a deadline, wait_idle is a different API, and .get() on
  // a smart pointer is not a blocking call.
  const std::string src =
      "bool ok = cv.wait_for(lock, timeout, [] { return done; });\n"
      "env->wait_idle();\n"
      "auto* p = holder.get();\n";
  EXPECT_TRUE(lint_one("src/diet/x.cpp", src).empty());
}

TEST(Gclint, AllowsBlockingOutsideMiddleware) {
  EXPECT_TRUE(lint_one("src/parallel/pool.cpp",
                       "cv.wait(lock, [] { return !queue.empty(); });\n")
                  .empty());
}

TEST(Gclint, McBlockingSuppressionWorks) {
  const std::string src =
      "// gclint: allow(mc-blocking) RealEnv client-thread wait\n"
      "cv.wait(lock, [] { return done; });\n";
  EXPECT_TRUE(lint_one("src/diet/x.cpp", src).empty());
}

// ---------- net-cost ----------

TEST(Gclint, FlagsTransferTimeOutsideNetAndPlatform) {
  EXPECT_TRUE(has_rule(
      lint_one("src/diet/x.cpp",
               "const double t = env()->topology().transfer_time(a, b, n);\n"),
      "net-cost"));
  EXPECT_TRUE(has_rule(
      lint_one("src/sched/x.cpp",
               "double bps = topo.bandwidth(a, b);\n"),
      "net-cost"));
}

TEST(Gclint, AllowsCostArithmeticInNetAndPlatform) {
  const std::string src =
      "const double t = topology().transfer_time(a, b, n);\n"
      "const double bps = bandwidth(a, b);\n";
  EXPECT_TRUE(lint_one("src/net/simenv.cpp", src).empty());
  EXPECT_TRUE(lint_one("src/platform/platform.cpp", src).empty());
}

TEST(Gclint, AllowsEstimateTransferEverywhere) {
  EXPECT_TRUE(
      lint_one("src/diet/x.cpp",
               "const double t = env()->estimate_transfer_s(a, b, n);\n")
          .empty());
}

TEST(Gclint, NetCostSuppressionWorks) {
  const std::string src =
      "// gclint: allow(net-cost) closed-form by design: idle-network bound\n"
      "const double t = topo.transfer_time(a, b, n);\n";
  EXPECT_TRUE(lint_one("src/diet/x.cpp", src).empty());
}

// ---------- comment and string immunity ----------

TEST(Gclint, IgnoresCommentsAndStrings) {
  const std::string src =
      "// std::rand() in a comment\n"
      "/* std::thread in a block comment */\n"
      "const char* s = \"std::rand()\";\n"
      "const char* r = R\"(std::thread)\";\n";
  EXPECT_TRUE(lint_one("src/diet/x.cpp", src).empty());
}

// ---------- suppressions ----------

TEST(Gclint, SameLineSuppressionSilencesFinding) {
  const std::string src =
      "std::thread t([]{});  // gclint: allow(thread) test fixture thread\n";
  EXPECT_TRUE(lint_one("src/diet/x.cpp", src).empty());
}

TEST(Gclint, StandaloneDirectiveCoversNextLine) {
  const std::string src =
      "// gclint: allow(thread) test fixture thread\n"
      "std::thread t([]{});\n";
  EXPECT_TRUE(lint_one("src/diet/x.cpp", src).empty());
}

TEST(Gclint, FileDirectiveCoversWholeFile) {
  const std::string src =
      "// gclint: allow-file(thread) this backend owns its threads\n"
      "std::thread a([]{});\n"
      "std::thread b([]{});\n";
  EXPECT_TRUE(lint_one("src/diet/x.cpp", src).empty());
}

TEST(Gclint, SuppressionIsRuleSpecific) {
  const std::string src =
      "// gclint: allow(wallclock) wrong rule\n"
      "std::thread t([]{});\n";
  EXPECT_TRUE(has_rule(lint_one("src/diet/x.cpp", src), "thread"));
}

TEST(Gclint, UnknownRuleInDirectiveIsItselfReported) {
  const auto findings = lint_one(
      "src/diet/x.cpp", "// gclint: allow(no-such-rule) typo\nint x;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "directive");
}

TEST(Gclint, RuleListIsStable) {
  const auto& names = gclint::rule_names();
  ASSERT_EQ(names.size(), 9u);
  EXPECT_NE(std::find(names.begin(), names.end(), "unchecked-status"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "hot-string"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "mc-blocking"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "net-cost"), names.end());
}

}  // namespace
