// Tests for the message layer: codec, envelopes, SimEnv, RealEnv.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "check/invariant.hpp"
#include "common/rng.hpp"
#include "des/engine.hpp"
#include "net/codec.hpp"
#include "net/realenv.hpp"
#include "net/simenv.hpp"

namespace gc::net {
namespace {

// ---------- codec ----------

TEST(Codec, RoundtripScalars) {
  Writer writer;
  writer.u8(0xab);
  writer.u16(0x1234);
  writer.u32(0xdeadbeef);
  writer.u64(0x0123456789abcdefULL);
  writer.i32(-42);
  writer.i64(-1LL << 40);
  writer.f32(1.5F);
  writer.f64(3.14159265358979);
  const Bytes bytes = writer.data();

  Reader reader(bytes);
  EXPECT_EQ(reader.u8(), 0xab);
  EXPECT_EQ(reader.u16(), 0x1234);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.i32(), -42);
  EXPECT_EQ(reader.i64(), -1LL << 40);
  EXPECT_FLOAT_EQ(reader.f32(), 1.5F);
  EXPECT_DOUBLE_EQ(reader.f64(), 3.14159265358979);
  EXPECT_TRUE(reader.done());
}

TEST(Codec, RoundtripStringsAndBytes) {
  Writer writer;
  writer.str("ramsesZoom2");
  writer.str("");
  writer.bytes(Bytes{1, 2, 3});
  Reader reader(writer.data());
  EXPECT_EQ(reader.str(), "ramsesZoom2");
  EXPECT_EQ(reader.str(), "");
  EXPECT_EQ(reader.bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(reader.done());
}

TEST(Codec, UnderflowIsFailSoft) {
  Writer writer;
  writer.u16(7);
  Reader reader(writer.data());
  EXPECT_EQ(reader.u16(), 7);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.u64(), 0u);  // underflow
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.u32(), 0u);  // still failing, no crash
  EXPECT_FALSE(reader.done());
}

TEST(Codec, StringWithBogusLength) {
  Writer writer;
  writer.u32(1000000);  // claims a long string, no payload
  Reader reader(writer.data());
  EXPECT_EQ(reader.str(), "");
  EXPECT_FALSE(reader.ok());
}

TEST(Codec, DoneDetectsTrailingGarbage) {
  Writer writer;
  writer.u32(1);
  writer.u8(0xff);
  Reader reader(writer.data());
  reader.u32();
  EXPECT_FALSE(reader.done());
  reader.u8();
  EXPECT_TRUE(reader.done());
}

TEST(Codec, FuzzRandomBuffersNeverCrash) {
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    Bytes junk(rng.uniform_u64(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    Reader reader(junk);
    // Drain with a random mix of typed reads.
    for (int i = 0; i < 16; ++i) {
      switch (rng.uniform_u64(5)) {
        case 0: reader.u8(); break;
        case 1: reader.u64(); break;
        case 2: reader.f64(); break;
        case 3: reader.str(); break;
        default: reader.bytes(); break;
      }
    }
    SUCCEED();
  }
}

// ---------- envelopes ----------

TEST(Envelope, WireSizeIncludesBulk) {
  Envelope envelope;
  envelope.payload = Bytes(100);
  EXPECT_EQ(envelope.wire_size(), 132);
  envelope.modeled_extra_bytes = 1 << 20;
  EXPECT_EQ(envelope.wire_size(), 132 + (1 << 20));
}

// ---------- SimEnv ----------

class Echo final : public Actor {
 public:
  void on_message(const Envelope& envelope) override {
    received.push_back(envelope);
    received_at.push_back(env()->now());
  }
  std::vector<Envelope> received;
  std::vector<SimTime> received_at;
};

TEST(SimEnv, DeliversWithModeledDelay) {
  des::Engine engine;
  UniformTopology topology(0.010, 1e6);  // 10ms + bytes/1MBps
  SimEnv env(engine, topology);
  Echo a;
  Echo b;
  env.attach(a, 0);
  env.attach(b, 1);

  Envelope envelope{a.endpoint(), b.endpoint(), 5, Bytes(968), 0};
  env.send(std::move(envelope));  // wire = 32 + 968 = 1000 bytes
  engine.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_NEAR(b.received_at[0], 0.011, 1e-12);
  EXPECT_EQ(b.received[0].type, 5u);
}

TEST(SimEnv, SameNodeIsFree) {
  des::Engine engine;
  UniformTopology topology(0.010, 1e6);
  SimEnv env(engine, topology);
  Echo a;
  Echo b;
  env.attach(a, 3);
  env.attach(b, 3);
  env.send(Envelope{a.endpoint(), b.endpoint(), 1, {}, 0});
  engine.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_DOUBLE_EQ(b.received_at[0], 0.0);
}

TEST(SimEnv, DropsUnknownDestination) {
  des::Engine engine;
  UniformTopology topology(0.0, 1e9);
  SimEnv env(engine, topology);
  Echo a;
  env.attach(a, 0);
  env.send(Envelope{a.endpoint(), 999, 1, {}, 0});
  engine.run();  // no crash, nothing delivered
  EXPECT_TRUE(a.received.empty());
}

TEST(SimEnv, DetachedActorInFlight) {
  des::Engine engine;
  UniformTopology topology(0.010, 1e9);
  SimEnv env(engine, topology);
  Echo a;
  Echo b;
  env.attach(a, 0);
  env.attach(b, 1);
  env.send(Envelope{a.endpoint(), b.endpoint(), 1, {}, 0});
  env.detach(b.endpoint());
  engine.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(SimEnv, ExecuteAdvancesVirtualTime) {
  des::Engine engine;
  UniformTopology topology(0.0, 1e9);
  SimEnv env(engine, topology);
  double done_at = -1.0;
  int work_result = 0;
  env.execute(
      0, 3600.0, [] { return 17; },
      [&](int result) {
        work_result = result;
        done_at = engine.now();
      });
  engine.run();
  EXPECT_EQ(work_result, 17);
  EXPECT_DOUBLE_EQ(done_at, 3600.0);
}

TEST(SimEnv, StreamIsFifoPerEndpointPair) {
  // A huge message followed by a tiny one on the same (src, dst) pair:
  // the tiny one must NOT overtake (TCP/CORBA stream semantics). This is
  // what makes send-time persistent-data registration sound.
  des::Engine engine;
  UniformTopology topology(0.001, 1e6);  // 1 MB/s
  SimEnv env(engine, topology);
  Echo a;
  Echo b;
  env.attach(a, 0);
  env.attach(b, 1);
  const std::uint64_t failures_before = check::failure_count();
  env.send(Envelope{a.endpoint(), b.endpoint(), 1, Bytes(1000000), 0});
  env.send(Envelope{a.endpoint(), b.endpoint(), 2, {}, 0});
  engine.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].type, 1u);
  EXPECT_EQ(b.received[1].type, 2u);
  EXPECT_GE(b.received_at[1], b.received_at[0]);
  // The per-stream delivery counter (GC_CHECK builds) saw exact succession.
  EXPECT_EQ(check::failure_count(), failures_before);
}

TEST(SimEnv, DistinctPairsStillOverlap) {
  des::Engine engine;
  UniformTopology topology(0.001, 1e6);
  SimEnv env(engine, topology);
  Echo a;
  Echo b;
  Echo c;
  env.attach(a, 0);
  env.attach(b, 1);
  env.attach(c, 2);
  env.send(Envelope{a.endpoint(), b.endpoint(), 1, Bytes(1000000), 0});
  env.send(Envelope{a.endpoint(), c.endpoint(), 2, {}, 0});
  engine.run();
  ASSERT_EQ(c.received.size(), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  // The tiny message to a DIFFERENT destination is not held back.
  EXPECT_LT(c.received_at[0], b.received_at[0]);
}

TEST(SimEnv, CountsTraffic) {
  des::Engine engine;
  UniformTopology topology(0.0, 1e9);
  SimEnv env(engine, topology);
  Echo a;
  Echo b;
  env.attach(a, 0);
  env.attach(b, 1);
  env.send(Envelope{a.endpoint(), b.endpoint(), 1, Bytes(68), 100});
  engine.run();
  EXPECT_EQ(env.messages_sent(), 1u);
  EXPECT_EQ(env.bytes_sent(), 200);  // 32 + 68 + 100
}

// ---------- move-only timers ----------
// Env timers take des::EventFn, so a continuation may own what it captures
// (std::function would refuse to compile these lambdas).

/// Raises a flag when destroyed: shows when a timer's capture is released.
struct ReleaseFlag {
  explicit ReleaseFlag(std::atomic<bool>& flag) : released(&flag) {}
  ~ReleaseFlag() { *released = true; }
  std::atomic<bool>* released;
};

TEST(SimEnv, MoveOnlyTimerFiresAndCancelReleasesCaptureAtOnce) {
  des::Engine engine;
  UniformTopology topology(0.0, 1e9);
  SimEnv env(engine, topology);
  int fired = 0;
  env.post_after(1.0, [&fired, value = std::make_unique<int>(7)] {
    fired = *value;
  });
  std::atomic<bool> released{false};
  const TimerId id = env.post_after(
      2.0, [flag = std::make_unique<ReleaseFlag>(released)] {});
  EXPECT_FALSE(released.load());
  EXPECT_TRUE(env.cancel_timer(id));
  EXPECT_TRUE(released.load()) << "cancel_timer kept the capture alive";
  engine.run();
  EXPECT_EQ(fired, 7);
}

TEST(RealEnv, MoveOnlyTimerFires) {
  UniformTopology topology(0.0, 1e9);
  RealEnv env(topology);
  env.start();
  std::atomic<int> fired{0};
  env.post_after(0.0, [&fired, value = std::make_unique<int>(7)] {
    fired = *value;
  });
  env.wait_idle();
  EXPECT_EQ(fired.load(), 7);
  env.stop();
}

// ---------- RealEnv ----------

TEST(RealEnv, PostAfterRuns) {
  UniformTopology topology(0.0, 1e9);
  RealEnv env(topology);
  env.start();
  std::atomic<int> fired{0};
  env.post_after(0.0, [&] { fired = 1; });
  env.wait_idle();
  EXPECT_EQ(fired.load(), 1);
  env.stop();
}

TEST(RealEnv, SendBetweenActors) {
  UniformTopology topology(0.0, 1e9);
  RealEnv env(topology);
  Echo a;
  Echo b;
  env.attach(a, 0);
  env.attach(b, 1);
  env.start();
  env.send(Envelope{a.endpoint(), b.endpoint(), 9, Bytes{1, 2}, 0});
  env.wait_idle();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].type, 9u);
  env.stop();
}

TEST(RealEnv, ExecuteRunsRealWork) {
  UniformTopology topology(0.0, 1e9);
  RealEnv env(topology);
  env.start();
  std::atomic<int> result{0};
  env.execute(0, 0.0, [] { return 6 * 7; },
              [&](int r) { result = r; });
  env.wait_idle();
  EXPECT_EQ(result.load(), 42);
  env.stop();
}

TEST(RealEnv, StopIsIdempotent) {
  UniformTopology topology(0.0, 1e9);
  RealEnv env(topology);
  env.start();
  env.stop();
  env.stop();
  SUCCEED();
}

TEST(RealEnv, ClockAdvances) {
  UniformTopology topology(0.0, 1e9);
  RealEnv env(topology);
  env.start();
  const SimTime t0 = env.now();
  std::atomic<double> fired_at{-1.0};
  env.post_after(0.02, [&] { fired_at = env.now(); });
  env.wait_idle();
  EXPECT_GE(fired_at.load(), t0 + 0.019);
  env.stop();
}

}  // namespace
}  // namespace gc::net
