// Tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "des/engine.hpp"

namespace gc::des {
namespace {

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.events_pending(), 0u);
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, SameTimeFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfter) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_after(2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // second cancel is a no-op
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelledEventDoesNotAdvanceClock) {
  Engine engine;
  const EventId id = engine.schedule_at(100.0, [] {});
  engine.schedule_at(1.0, [] {});
  engine.cancel(id);
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.schedule_at(static_cast<double>(i), [&] { ++count; });
  }
  engine.run_until(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
  engine.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(42.0);
  EXPECT_DOUBLE_EQ(engine.now(), 42.0);
}

TEST(Engine, EventsExecutedCounts) {
  Engine engine;
  for (int i = 0; i < 7; ++i) engine.schedule_after(1.0, [] {});
  engine.run();
  EXPECT_EQ(engine.events_executed(), 7u);
}

TEST(Engine, NestedScheduling) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) engine.schedule_after(1.0, recurse);
  };
  engine.schedule_after(0.0, recurse);
  engine.run();
  EXPECT_EQ(depth, 50);
  EXPECT_DOUBLE_EQ(engine.now(), 49.0);
}

TEST(Engine, CancelledTimersDoNotAccumulate) {
  // Regression: the heartbeat pattern — re-arm a far-future watchdog and
  // cancel the previous one, every tick — used to leave one tombstone per
  // tick in the calendar for the whole run (the watchdogs only drain at
  // t=1e9). Compaction must keep tombstones bounded by the live count.
  Engine engine;
  EventId watchdog = 0;
  std::size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    if (watchdog != 0) {
      EXPECT_TRUE(engine.cancel(watchdog));
    }
    watchdog = engine.schedule_at(1e9 + i, [] {});
    peak = std::max(peak, engine.events_tombstoned());
    ASSERT_LE(engine.events_tombstoned(),
              engine.events_pending() + 64);  // compaction invariant
  }
  // Live set stayed tiny, so the calendar did too.
  EXPECT_EQ(engine.events_pending(), 1u);
  EXPECT_LE(peak, 65u);
  engine.run();
  EXPECT_EQ(engine.events_tombstoned(), 0u);
  EXPECT_EQ(engine.events_executed(), 1u);
}

TEST(Engine, TombstonedAndHighwaterAccessors) {
  Engine engine;
  const EventId a = engine.schedule_at(1.0, [] {});
  engine.schedule_at(2.0, [] {});
  engine.schedule_at(3.0, [] {});
  EXPECT_EQ(engine.queue_depth_highwater(), 3u);
  EXPECT_EQ(engine.events_tombstoned(), 0u);
  EXPECT_TRUE(engine.cancel(a));
  EXPECT_EQ(engine.events_tombstoned(), 1u);
  EXPECT_EQ(engine.events_pending(), 2u);
  engine.run();
  EXPECT_EQ(engine.events_tombstoned(), 0u);
  EXPECT_EQ(engine.queue_depth_highwater(), 3u);
}

class EngineRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineRandomized, AlwaysMonotonicTime) {
  Engine engine;
  Rng rng(GetParam());
  double last = -1.0;
  bool monotonic = true;
  for (int i = 0; i < 500; ++i) {
    engine.schedule_at(rng.uniform(0.0, 100.0), [&] {
      if (engine.now() < last) monotonic = false;
      last = engine.now();
      if (engine.now() < 90.0) {
        engine.schedule_after(rng.uniform(0.0, 5.0), [] {});
      }
    });
  }
  engine.run();
  EXPECT_TRUE(monotonic);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomized,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gc::des
