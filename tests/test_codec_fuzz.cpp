// Codec round-trip fuzz: for every DIET protocol message type, random
// instances must satisfy encode -> decode -> encode byte-identity (the
// wire format is part of the determinism contract — a lossy or order-
// sensitive codec would break cross-run reproducibility). Discovery-path
// messages must also encode into exactly one buffer of their wire size,
// and corrupt counts must fail the Reader instead of throwing. Plus
// explicit Status error-path coverage for the fallible APIs.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariant.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "des/engine.hpp"
#include "diet/config.hpp"
#include "diet/protocol.hpp"
#include "diet/sed.hpp"
#include "dtm/messages.hpp"
#include "io/fortran.hpp"
#include "io/namelist.hpp"
#include "io/tar.hpp"
#include "naming/registry.hpp"
#include "net/codec.hpp"
#include "net/simenv.hpp"
#include "net/topology.hpp"

namespace gc {
namespace {

constexpr int kRounds = 200;

// ---------- random field generators ----------

std::string random_name(Rng& rng) {
  std::string s;
  const std::uint64_t len = rng.uniform_u64(24);
  for (std::uint64_t i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng.uniform_u64(26));
  }
  return s;
}

net::Bytes random_bytes(Rng& rng) {
  net::Bytes b(rng.uniform_u64(64));
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

diet::ProfileDesc random_desc(Rng& rng) {
  // Valid marker chain: -1 <= last_in <= last_inout <= last_out, last_out
  // >= 0 (the Profile constructors enforce this).
  const int last_out = static_cast<int>(rng.uniform_u64(4));
  const int last_inout =
      static_cast<int>(
          rng.uniform_u64(static_cast<std::uint64_t>(last_out) + 2)) -
      1;
  const int last_in =
      static_cast<int>(
          rng.uniform_u64(static_cast<std::uint64_t>(last_inout) + 2)) -
      1;
  diet::ProfileDesc desc(random_name(rng), last_in, last_inout, last_out);
  for (int i = 0; i < desc.arg_count(); ++i) {
    auto& arg = desc.arg(i);
    arg.type = static_cast<diet::DataType>(rng.uniform_u64(5));
    arg.base = static_cast<diet::BaseType>(rng.uniform_u64(6));
    arg.persistence = static_cast<diet::Persistence>(rng.uniform_u64(4));
    arg.rows = rng.uniform_u64(1000);
    arg.cols = rng.uniform_u64(16) + 1;
  }
  return desc;
}

sched::Estimation random_estimation(Rng& rng) {
  sched::Estimation est;
  est.timestamp = rng.uniform(0.0, 1e5);
  est.host_power = rng.uniform(0.1, 8.0);
  est.machines = static_cast<std::int32_t>(rng.uniform_u64(128));
  est.queue_length = rng.uniform(0.0, 50.0);
  est.queued_work_s = rng.uniform(0.0, 1e4);
  est.free_cpu = rng.uniform();
  est.free_mem_mb = rng.uniform(0.0, 65536.0);
  est.service_comp_s = rng.uniform(-1.0, 1e4);
  est.jobs_completed = rng.next_u64();
  est.agent_assigned = rng.uniform(0.0, 100.0);
  return est;
}

sched::Candidate random_candidate(Rng& rng) {
  sched::Candidate c;
  c.sed_uid = rng.next_u64();
  c.sed_endpoint = static_cast<net::Endpoint>(rng.uniform_u64(1 << 16));
  c.sed_name = random_name(rng);
  c.est = random_estimation(rng);
  return c;
}

/// Whether an encoder must reserve its exact wire size up front. The
/// discovery path (submit, collect, candidates, reply) does: a size
/// function that is off by one byte shows as capacity() != size().
enum class Size { kAny, kExact };

/// encode -> decode -> encode must reproduce the first byte stream.
template <typename Msg, Size kSize = Size::kAny, typename MakeFn>
void roundtrip(MakeFn make) {
  Rng rng(20260805);
  for (int round = 0; round < kRounds; ++round) {
    const Msg msg = make(rng);
    const net::Bytes first = msg.encode();
    if constexpr (kSize == Size::kExact) {
      ASSERT_EQ(first.capacity(), first.size()) << "round " << round;
    }
    const Msg back = Msg::decode(first);
    const net::Bytes second = back.encode();
    ASSERT_EQ(first, second) << "round " << round;
  }
}

// ---------- per-message fuzz ----------

TEST(CodecFuzz, SedRegisterMsg) {
  roundtrip<diet::SedRegisterMsg>([](Rng& rng) {
    diet::SedRegisterMsg msg;
    msg.sed_uid = rng.next_u64();
    msg.name = random_name(rng);
    msg.host_power = rng.uniform(0.1, 8.0);
    msg.machines = static_cast<std::int32_t>(rng.uniform_u64(512));
    const std::uint64_t services = rng.uniform_u64(4);
    for (std::uint64_t i = 0; i < services; ++i) {
      msg.services.push_back(random_desc(rng));
    }
    return msg;
  });
}

TEST(CodecFuzz, AgentRegisterMsg) {
  roundtrip<diet::AgentRegisterMsg>([](Rng& rng) {
    diet::AgentRegisterMsg msg;
    msg.name = random_name(rng);
    const std::uint64_t services = rng.uniform_u64(6);
    for (std::uint64_t i = 0; i < services; ++i) {
      msg.services.push_back(random_name(rng));
    }
    return msg;
  });
}

/// Zero to a few data dependencies: the empty case matters because the
/// deps ride as a trailing-optional section (absent = pre-DTM wire form).
std::vector<diet::DataDep> random_deps(Rng& rng) {
  std::vector<diet::DataDep> deps;
  const std::uint64_t count = rng.uniform_u64(4);
  for (std::uint64_t i = 0; i < count; ++i) {
    deps.push_back(diet::DataDep{
        random_name(rng),
        static_cast<std::int64_t>(rng.uniform_u64(1ULL << 40))});
  }
  return deps;
}

TEST(CodecFuzz, RequestSubmitMsg) {
  roundtrip<diet::RequestSubmitMsg, Size::kExact>([](Rng& rng) {
    diet::RequestSubmitMsg msg;
    msg.client_request_id = rng.next_u64();
    msg.desc = random_desc(rng);
    msg.in_bytes = static_cast<std::int64_t>(rng.uniform_u64(1ULL << 40));
    msg.deps = random_deps(rng);
    return msg;
  });
}

TEST(CodecFuzz, RequestCollectMsg) {
  roundtrip<diet::RequestCollectMsg, Size::kExact>([](Rng& rng) {
    diet::RequestCollectMsg msg;
    msg.request_key = rng.next_u64();
    msg.desc = random_desc(rng);
    msg.in_bytes = static_cast<std::int64_t>(rng.uniform_u64(1ULL << 40));
    msg.timeout_s = rng.uniform(0.0, 30.0);
    msg.deps = random_deps(rng);
    return msg;
  });
}

TEST(CodecFuzz, CandidatesMsg) {
  roundtrip<diet::CandidatesMsg, Size::kExact>([](Rng& rng) {
    diet::CandidatesMsg msg;
    msg.request_key = rng.next_u64();
    const std::uint64_t count = rng.uniform_u64(8);
    for (std::uint64_t i = 0; i < count; ++i) {
      msg.candidates.push_back(random_candidate(rng));
    }
    return msg;
  });
}

TEST(CodecFuzz, RequestReplyMsg) {
  roundtrip<diet::RequestReplyMsg, Size::kExact>([](Rng& rng) {
    diet::RequestReplyMsg msg;
    msg.client_request_id = rng.next_u64();
    msg.found = rng.uniform_u64(2) == 1;
    msg.chosen = random_candidate(rng);
    const std::uint64_t available = rng.uniform_u64(4);
    for (std::uint64_t i = 0; i < available; ++i) {
      msg.available_ids.push_back(random_name(rng));
    }
    return msg;
  });
}

TEST(CodecFuzz, CallDataMsg) {
  roundtrip<diet::CallDataMsg>([](Rng& rng) {
    diet::CallDataMsg msg;
    msg.call_id = rng.next_u64();
    msg.path = random_name(rng);
    msg.last_out = static_cast<std::int32_t>(rng.uniform_u64(4));
    msg.last_inout =
        static_cast<std::int32_t>(
            rng.uniform_u64(static_cast<std::uint64_t>(msg.last_out) + 2)) -
        1;
    msg.last_in =
        static_cast<std::int32_t>(rng.uniform_u64(
            static_cast<std::uint64_t>(msg.last_inout) + 2)) -
        1;
    msg.inputs = random_bytes(rng);
    return msg;
  });
}

TEST(CodecFuzz, CallStartedMsg) {
  roundtrip<diet::CallStartedMsg>([](Rng& rng) {
    diet::CallStartedMsg msg;
    msg.call_id = rng.next_u64();
    return msg;
  });
}

TEST(CodecFuzz, CallResultMsg) {
  roundtrip<diet::CallResultMsg>([](Rng& rng) {
    diet::CallResultMsg msg;
    msg.call_id = rng.next_u64();
    msg.solve_status =
        static_cast<std::int32_t>(rng.uniform_u64(8)) - 4;  // incl. -3
    msg.outputs = random_bytes(rng);
    return msg;
  });
}

TEST(CodecFuzz, JobDoneMsg) {
  roundtrip<diet::JobDoneMsg>([](Rng& rng) {
    diet::JobDoneMsg msg;
    msg.sed_uid = rng.next_u64();
    msg.call_id = rng.next_u64();
    msg.busy_seconds = rng.uniform(0.0, 1e5);
    return msg;
  });
}

TEST(CodecFuzz, HeartbeatMsg) {
  roundtrip<diet::HeartbeatMsg>([](Rng& rng) {
    diet::HeartbeatMsg msg;
    msg.uid = rng.next_u64();
    msg.seq = rng.next_u64();
    return msg;
  });
}

// ---------- federation message fuzz ----------

TEST(CodecFuzz, RequestCollectMsgFederated) {
  roundtrip<diet::RequestCollectMsg, Size::kExact>([](Rng& rng) {
    diet::RequestCollectMsg msg;
    msg.request_key = rng.next_u64();
    msg.desc = random_desc(rng);
    msg.in_bytes = static_cast<std::int64_t>(rng.uniform_u64(1ULL << 40));
    msg.timeout_s = rng.uniform(0.0, 30.0);
    msg.deps = random_deps(rng);
    // Sometimes both zero (legacy form), sometimes a real fed section —
    // including ttl 0 with a nonzero origin, which must still encode it.
    if (rng.uniform_u64(3) != 0) {
      msg.origin_uid = static_cast<std::uint32_t>(rng.uniform_u64(1 << 16));
      msg.ttl = static_cast<std::uint32_t>(rng.uniform_u64(4));
    }
    return msg;
  });
}

TEST(CodecFuzz, PeerAnnounceMsg) {
  roundtrip<diet::PeerAnnounceMsg>([](Rng& rng) {
    diet::PeerAnnounceMsg msg;
    msg.ma_uid = static_cast<std::uint32_t>(rng.uniform_u64(1 << 16));
    msg.name = random_name(rng);
    const std::uint64_t services = rng.uniform_u64(6);
    for (std::uint64_t i = 0; i < services; ++i) {
      msg.services.push_back(random_name(rng));
    }
    return msg;
  });
}

TEST(CodecFuzz, PeerCandidatesMsg) {
  roundtrip<diet::PeerCandidatesMsg, Size::kExact>([](Rng& rng) {
    diet::PeerCandidatesMsg msg;
    msg.request_key = rng.next_u64();
    msg.ma_uid = static_cast<std::uint32_t>(rng.uniform_u64(1 << 16));
    const std::uint64_t count = rng.uniform_u64(8);
    for (std::uint64_t i = 0; i < count; ++i) {
      msg.candidates.push_back(random_candidate(rng));
    }
    return msg;
  });
}

/// The federation section must be trailing-optional: bytes written by the
/// pre-federation encoder (no origin/ttl) decode with both fields zero,
/// and a message with both fields zero re-encodes to those exact bytes.
TEST(CodecCompat, CollectPreFederationEnvelopeDecodes) {
  Rng rng(20260809);
  for (int round = 0; round < kRounds; ++round) {
    diet::RequestCollectMsg msg;
    msg.request_key = rng.next_u64();
    msg.desc = random_desc(rng);
    msg.in_bytes = static_cast<std::int64_t>(rng.uniform_u64(1ULL << 40));
    msg.timeout_s = rng.uniform(0.0, 30.0);
    msg.deps = random_deps(rng);

    // The pre-federation wire form, written by hand: key, desc, in_bytes,
    // timeout, then the deps section only when non-empty.
    net::Writer w;
    w.u64(msg.request_key);
    msg.desc.serialize(w);
    w.i64(msg.in_bytes);
    w.f64(msg.timeout_s);
    if (!msg.deps.empty()) {
      w.u32(static_cast<std::uint32_t>(msg.deps.size()));
      for (const auto& dep : msg.deps) {
        w.str(dep.data_id);
        w.i64(dep.bytes);
      }
    }
    const net::Bytes legacy = w.take();

    const diet::RequestCollectMsg back =
        diet::RequestCollectMsg::decode(legacy);
    EXPECT_EQ(back.origin_uid, 0u) << "round " << round;
    EXPECT_EQ(back.ttl, 0u) << "round " << round;
    EXPECT_EQ(back.deps.size(), msg.deps.size()) << "round " << round;
    // origin/ttl are zero, so re-encoding must reproduce the old bytes.
    EXPECT_EQ(msg.encode(), legacy) << "round " << round;
    EXPECT_EQ(back.encode(), legacy) << "round " << round;
  }
}

TEST(CodecCompat, LocatePreFederationEnvelopeDecodes) {
  Rng rng(20260810);
  for (int round = 0; round < kRounds; ++round) {
    dtm::DataLocateMsg msg;
    msg.data_id = random_name(rng);
    msg.requester_uid = rng.next_u64();
    msg.requester_endpoint =
        static_cast<net::Endpoint>(rng.uniform_u64(1 << 16));

    net::Writer w;
    w.str(msg.data_id);
    w.u64(msg.requester_uid);
    w.u32(msg.requester_endpoint);
    const net::Bytes legacy = w.take();

    const dtm::DataLocateMsg back = dtm::DataLocateMsg::decode(legacy);
    EXPECT_FALSE(back.federated) << "round " << round;
    EXPECT_EQ(msg.encode(), legacy) << "round " << round;

    // And the federated flag survives its own roundtrip.
    msg.federated = true;
    const dtm::DataLocateMsg fed =
        dtm::DataLocateMsg::decode(msg.encode());
    EXPECT_TRUE(fed.federated) << "round " << round;
  }
}

TEST(CodecFuzz, DataLocateMsgFederated) {
  roundtrip<dtm::DataLocateMsg>([](Rng& rng) {
    dtm::DataLocateMsg msg;
    msg.data_id = random_name(rng);
    msg.requester_uid = rng.next_u64();
    msg.requester_endpoint =
        static_cast<net::Endpoint>(rng.uniform_u64(1 << 16));
    msg.federated = rng.uniform_u64(2) == 1;
    return msg;
  });
}

// ---------- DTM message fuzz ----------

dtm::ReplicaInfo random_replica(Rng& rng) {
  dtm::ReplicaInfo info;
  info.sed_uid = rng.next_u64();
  info.endpoint = static_cast<net::Endpoint>(rng.uniform_u64(1 << 16));
  info.node = static_cast<net::NodeId>(rng.uniform_u64(1 << 12));
  info.bytes = static_cast<std::int64_t>(rng.uniform_u64(1ULL << 40));
  return info;
}

TEST(CodecFuzz, DataRegisterMsg) {
  roundtrip<dtm::DataRegisterMsg>([](Rng& rng) {
    dtm::DataRegisterMsg msg;
    msg.data_id = random_name(rng);
    msg.holder = random_replica(rng);
    msg.replicas = static_cast<std::int32_t>(rng.uniform_u64(8)) + 1;
    return msg;
  });
}

TEST(CodecFuzz, DataUnregisterMsg) {
  roundtrip<dtm::DataUnregisterMsg>([](Rng& rng) {
    dtm::DataUnregisterMsg msg;
    msg.sed_uid = rng.next_u64();
    msg.data_id = random_name(rng);  // may be empty = drop-all
    return msg;
  });
}

TEST(CodecFuzz, DataLocateMsg) {
  roundtrip<dtm::DataLocateMsg>([](Rng& rng) {
    dtm::DataLocateMsg msg;
    msg.data_id = random_name(rng);
    msg.requester_uid = rng.next_u64();
    msg.requester_endpoint =
        static_cast<net::Endpoint>(rng.uniform_u64(1 << 16));
    return msg;
  });
}

TEST(CodecFuzz, DataLocationMsg) {
  roundtrip<dtm::DataLocationMsg>([](Rng& rng) {
    dtm::DataLocationMsg msg;
    msg.data_id = random_name(rng);
    const std::uint64_t count = rng.uniform_u64(6);
    for (std::uint64_t i = 0; i < count; ++i) {
      msg.replicas.push_back(random_replica(rng));
    }
    return msg;
  });
}

TEST(CodecFuzz, DataPullMsg) {
  roundtrip<dtm::DataPullMsg>([](Rng& rng) {
    dtm::DataPullMsg msg;
    msg.data_id = random_name(rng);
    msg.requester_uid = rng.next_u64();
    return msg;
  });
}

TEST(CodecFuzz, DataPushMsg) {
  roundtrip<dtm::DataPushMsg>([](Rng& rng) {
    dtm::DataPushMsg msg;
    msg.data_id = random_name(rng);
    msg.found = rng.uniform_u64(2) == 1;
    msg.value = random_bytes(rng);
    msg.charged_bytes = static_cast<std::int64_t>(rng.uniform_u64(1ULL << 40));
    return msg;
  });
}

TEST(CodecFuzz, DataStripeMsg) {
  roundtrip<dtm::DataStripeMsg>([](Rng& rng) {
    dtm::DataStripeMsg msg;
    msg.transfer_id = rng.next_u64();
    msg.data_id = random_name(rng);
    msg.stripe_count = static_cast<std::uint32_t>(rng.uniform_u64(16)) + 1;
    msg.stripe_index = static_cast<std::uint32_t>(
        rng.uniform_u64(msg.stripe_count));
    msg.found = rng.uniform_u64(2) == 1;
    if (msg.stripe_index == 0) msg.value = random_bytes(rng);
    msg.total_bytes = static_cast<std::int64_t>(rng.uniform_u64(1ULL << 40));
    msg.dest_endpoint = static_cast<net::Endpoint>(rng.uniform_u64(1 << 16));
    return msg;
  });
}

TEST(CodecFuzz, DataReplicateMsg) {
  roundtrip<dtm::DataReplicateMsg>([](Rng& rng) {
    dtm::DataReplicateMsg msg;
    msg.data_id = random_name(rng);
    msg.holder = random_replica(rng);
    return msg;
  });
}

// ---------- adversarial descriptor shapes ----------

// A decoded ArgDesc can carry any rows/cols a hostile or corrupted message
// chose; element_count() must clamp so the product (and payload_bytes())
// never wraps into a bogus or negative modeled volume.
TEST(CodecFuzz, ArgDescAdversarialShapesNeverOverflow) {
  constexpr std::uint64_t kMax =
      std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kMaxElements =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) / 8;

  struct Capture {
    static void handler(const char*, int, const std::string&) {}
    Capture() {
      check::reset_failure_count();
      check::set_failure_handler(&Capture::handler);
    }
    ~Capture() { check::set_failure_handler(nullptr); }
  } capture;

  const std::pair<std::uint64_t, std::uint64_t> hostile[] = {
      {1ULL << 40, 1ULL << 40},  // product wraps 64 bits outright
      {kMax, kMax},
      {kMax, 2},
      {3, kMax / 2},
      {kMaxElements, 2},     // honest product, *8 would wrap int64
      {kMaxElements + 1, 1},
  };
  for (const auto& [rows, cols] : hostile) {
    diet::ArgDesc desc;
    desc.type = diet::DataType::kMatrix;
    desc.base = diet::BaseType::kDouble;  // 8 bytes: the worst multiplier
    desc.rows = rows;
    desc.cols = cols;

    // Decode path: hostile shapes survive the codec verbatim...
    net::Writer w;
    desc.serialize(w);
    const net::Bytes wire = w.take();
    net::Reader r(wire);
    const diet::ArgDesc back = diet::ArgDesc::deserialize(r);
    EXPECT_EQ(back.rows, rows);
    EXPECT_EQ(back.cols, cols);

    // ...but the derived quantities are clamped, never wrapped.
    EXPECT_LE(back.element_count(), kMaxElements)
        << "rows=" << rows << " cols=" << cols;
    EXPECT_GE(back.payload_bytes(), 0)
        << "rows=" << rows << " cols=" << cols;
  }

  // Sane shapes stay exact, and only the hostile ones trip the invariant.
  diet::ArgDesc sane;
  sane.type = diet::DataType::kMatrix;
  sane.base = diet::BaseType::kDouble;
  sane.rows = 1000;
  sane.cols = 1000;
  EXPECT_EQ(sane.element_count(), 1000u * 1000u);
  EXPECT_EQ(sane.payload_bytes(), 8'000'000);

  if constexpr (check::kEnabled) {
    // Every hostile shape above tripped the clamp invariant exactly once
    // (via element_count inside both element_count and payload_bytes calls,
    // so >= the number of hostile shapes); the sane shape added none.
    EXPECT_GE(check::failure_count(), std::size(hostile));
  }
  check::reset_failure_count();
}

// ---------- corrupt counts fail soft ----------

// A wire count is bounded by the bytes behind it before anything is sized
// from it: sizing from the raw counts below would throw std::bad_alloc
// (candidates) and std::length_error (descriptor arguments).
TEST(CodecCorrupt, HugeCandidateCountFailsTheReader) {
  Rng rng(3);
  net::Writer w;
  w.u64(7);            // request key
  w.u32(0xFFFFFFFFu);  // candidate count no payload can hold
  random_candidate(rng).serialize(w);
  const net::Bytes wire = w.take();

  diet::CandidatesMsg msg;
  ASSERT_NO_THROW(msg = diet::CandidatesMsg::decode(wire));
  EXPECT_EQ(msg.request_key, 7u);
  // The whole candidate, then the half-read one the bytes ran out in.
  EXPECT_EQ(msg.candidates.size(), 2u);

  net::Reader r(wire);
  r.u64();
  EXPECT_EQ(sched::deserialize_candidates(r).size(), 2u);
  EXPECT_FALSE(r.ok());
}

TEST(CodecCorrupt, HugeArgumentMarkerFailsTheReader) {
  net::Writer w;
  w.u64(9);  // request key
  w.str("svc");
  w.i32(-1);
  w.i32(-1);
  w.i32(std::numeric_limits<std::int32_t>::max());  // last_out
  diet::ArgDesc{}.serialize(w);
  w.i64(0);    // in_bytes
  w.f64(1.0);  // timeout_s
  const net::Bytes wire = w.take();

  diet::RequestCollectMsg msg;
  ASSERT_NO_THROW(msg = diet::RequestCollectMsg::decode(wire));
  EXPECT_EQ(msg.request_key, 9u);
  EXPECT_EQ(msg.desc.arg_count(), 0);

  net::Reader r(wire);
  r.u64();
  EXPECT_EQ(diet::ProfileDesc::deserialize(r).arg_count(), 0);
  EXPECT_FALSE(r.ok());
}

// A call's markers are checked against the service before a profile is
// sized from them: an overflowing last_out used to throw
// std::length_error, and out-of-order markers tripped the Profile
// constructor's check, either way taking the SED down.
diet::ProfileDesc int_service() {
  diet::ProfileDesc desc("svc", 0, 0, 1);
  desc.arg(0).type = diet::DataType::kScalar;
  desc.arg(0).base = diet::BaseType::kInt;
  desc.arg(1).type = diet::DataType::kScalar;
  desc.arg(1).base = diet::BaseType::kInt;
  return desc;
}

net::Bytes int_inputs(std::int32_t value) {
  diet::Profile profile("svc", 0, 0, 1);
  profile.arg(0).set_scalar<std::int32_t>(value, diet::BaseType::kInt,
                                          diet::Persistence::kVolatile);
  net::Writer w;
  profile.serialize_inputs(w);
  return w.take();
}

TEST(CodecCorrupt, CallMarkersNotTheServicesFailSoft) {
  const diet::ProfileDesc service = int_service();
  const net::Bytes inputs = int_inputs(5);
  const std::tuple<int, int, int> markers[] = {
      {-1, -1, std::numeric_limits<std::int32_t>::max()},  // overflows
      {1, 0, 2},  // last_in > last_inout
      {0, 0, 2},  // well formed, but not the service's
  };
  for (const auto& [in, inout, out] : markers) {
    net::Reader r(inputs);
    gc::Result<diet::Profile> profile = make_error(ErrorCode::kInternal, "");
    ASSERT_NO_THROW(profile = diet::Profile::deserialize_inputs(
                        service, in, inout, out, r));
    EXPECT_FALSE(profile.is_ok()) << in << "," << inout << "," << out;
  }
  net::Reader r(inputs);
  auto good = diet::Profile::deserialize_inputs(service, 0, 0, 1, r);
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_EQ(good.value().arg(0).get_scalar<std::int32_t>().value(), 5);
}

TEST(CodecCorrupt, TruncatedCallDataFailsSoft) {
  const diet::ProfileDesc service = int_service();
  const net::Bytes inputs = int_inputs(5);
  for (std::size_t cut = 0; cut < inputs.size(); ++cut) {
    const net::Bytes shorter(inputs.begin(),
                             inputs.begin() + static_cast<std::ptrdiff_t>(cut));
    net::Reader r(shorter);
    EXPECT_FALSE(
        diet::Profile::deserialize_inputs(service, 0, 0, 1, r).is_ok())
        << "cut at " << cut;
  }
}

struct ResultRecorder final : net::Actor {
  std::vector<diet::CallResultMsg> results;
  void on_message(const net::Envelope& envelope) override {
    if (envelope.type == diet::kCallResult) {
      results.push_back(diet::CallResultMsg::decode(envelope.payload));
    }
  }
};

TEST(SedCallData, CorruptCallIsRejectedAndTheNextCallRuns) {
  des::Engine engine;
  net::UniformTopology topology(1e-3, 1e9);
  net::SimEnv env(engine, topology);
  diet::ServiceTable services;
  ASSERT_TRUE(services
                  .add_sync(int_service(),
                            [](diet::Profile& p) {
                              const auto in =
                                  p.arg(0).get_scalar<std::int32_t>();
                              p.arg(1).set_scalar<std::int32_t>(
                                  in.value() * 2, diet::BaseType::kInt,
                                  diet::Persistence::kVolatile);
                              return 0;
                            })
                  .is_ok());
  diet::Sed sed(1, "s1", services, 1.0, 1, diet::SedTuning{}, 7);
  ResultRecorder client;
  env.attach(sed, 0);
  env.attach(client, 1);

  auto send_call = [&](std::uint64_t id, int in, int inout, int out,
                       net::Bytes inputs) {
    diet::CallDataMsg msg;
    msg.call_id = id;
    msg.path = "svc";
    msg.last_in = in;
    msg.last_inout = inout;
    msg.last_out = out;
    msg.inputs = std::move(inputs);
    env.send(net::Envelope{client.endpoint(), sed.endpoint(),
                           diet::kCallData, msg.encode(), 0, id});
    engine.run();
  };
  send_call(1, -1, -1, std::numeric_limits<std::int32_t>::max(), {});
  send_call(2, 1, 0, 2, int_inputs(5));
  net::Bytes truncated = int_inputs(5);
  truncated.resize(truncated.size() - 1);
  send_call(3, 0, 0, 1, truncated);
  ASSERT_EQ(client.results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(client.results[i].call_id, i + 1);
    EXPECT_EQ(client.results[i].solve_status, -1);
  }
  EXPECT_EQ(sed.jobs_completed(), 0u);

  // The rejected id was un-journalled: its well-formed resend runs, and
  // so does a new call.
  send_call(3, 0, 0, 1, int_inputs(5));
  send_call(4, 0, 0, 1, int_inputs(21));
  ASSERT_EQ(client.results.size(), 5u);
  EXPECT_EQ(sed.jobs_completed(), 2u);
  for (std::size_t i = 3; i < 5; ++i) {
    EXPECT_EQ(client.results[i].solve_status, 0);
    diet::Profile out("svc", 0, 0, 1);
    net::Reader r(client.results[i].outputs);
    out.merge_outputs(r);
    EXPECT_EQ(out.arg(1).get_scalar<std::int32_t>().value(),
              i == 3 ? 10 : 42);
  }
}

// ---------- in-place candidate intake ----------

/// A straightforward whole-list decoder, kept as the reference
/// append_candidates must agree with.
std::vector<sched::Candidate> reference_deserialize(net::Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<sched::Candidate> out;
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    out.push_back(sched::Candidate::deserialize(r));
  }
  return out;
}

net::Bytes list_bytes(std::span<const sched::Candidate> candidates) {
  return diet::CandidatesMsg::encode(0, candidates);
}

TEST(CandidateIntake, AppendMatchesWholeListDecodeOnTruncatedLists) {
  Rng rng(20261020);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<sched::Candidate> list;
    const std::uint64_t count = rng.uniform_u64(6);
    for (std::uint64_t i = 0; i < count; ++i) {
      list.push_back(random_candidate(rng));
    }
    net::Writer w;
    sched::serialize_candidates(w, list);
    net::Bytes wire = w.take();
    // Every third round is cut at a random byte, count field included.
    if (round % 3 == 0) wire.resize(rng.uniform_u64(wire.size() + 1));

    net::Reader expected_reader(wire);
    const std::vector<sched::Candidate> expected =
        reference_deserialize(expected_reader);

    // Appended after earlier answers, as an agent's pending list is.
    std::vector<sched::Candidate> landed;
    const std::uint64_t earlier = rng.uniform_u64(3);
    for (std::uint64_t i = 0; i < earlier; ++i) {
      landed.push_back(random_candidate(rng));
    }
    const std::vector<sched::Candidate> before = landed;
    net::Reader reader(wire);
    const std::size_t appended = sched::append_candidates(reader, landed);

    ASSERT_EQ(appended, expected.size()) << "round " << round;
    ASSERT_EQ(landed.size(), before.size() + expected.size());
    EXPECT_EQ(reader.ok(), expected_reader.ok()) << "round " << round;
    EXPECT_EQ(reader.remaining(), expected_reader.remaining());
    EXPECT_EQ(list_bytes({landed.data(), before.size()}), list_bytes(before))
        << "round " << round;
    EXPECT_EQ(list_bytes({landed.data() + before.size(), appended}),
              list_bytes(expected))
        << "round " << round;

    net::Reader whole_reader(wire);
    EXPECT_EQ(list_bytes(sched::deserialize_candidates(whole_reader)),
              list_bytes(expected))
        << "round " << round;
  }
}

// ---------- a SED's standing candidate ----------

/// Parent stand-in: records the candidate replies it receives.
struct ReplyRecorder final : net::Actor {
  std::vector<net::Bytes> replies;
  void on_message(const net::Envelope& envelope) override {
    if (envelope.type == diet::kCandidates) replies.push_back(envelope.payload);
  }
};

TEST(SedReply, BytesAreTheCandidatesMessageOfItsStandingCandidate) {
  des::Engine engine;
  net::UniformTopology topology(1e-3, 1e9);
  net::SimEnv env(engine, topology);
  diet::ServiceTable services;
  diet::ProfileDesc desc("svc", 0, 0, 1);
  desc.arg(0).type = diet::DataType::kScalar;
  desc.arg(1).type = diet::DataType::kScalar;
  ASSERT_TRUE(services
                  .add(desc, [](diet::ServiceContext& ctx) { ctx.finish(0); },
                       [](const diet::ProfileDesc&, double power, int machines,
                          sched::Estimation& est) {
                         est.service_comp_s = 3.0 / power + machines;
                       })
                  .is_ok());
  diet::Sed sed(42, "sed-with-a-name-past-the-small-string-buffer", services,
                2.5, 3, diet::SedTuning{}, 7);
  ReplyRecorder parent;
  env.attach(parent, 0);
  env.attach(sed, 1);
  sed.register_at(parent.endpoint());
  engine.run();

  // Asks once and returns the reply together with the virtual times the
  // collect was sent and the reply arrived.
  std::uint64_t key = 100;
  auto ask = [&](const diet::ProfileDesc& want) {
    diet::RequestCollectMsg collect;
    collect.request_key = ++key;
    collect.desc = want;
    const double sent = env.now();
    env.send(net::Envelope{parent.endpoint(), sed.endpoint(),
                           diet::kRequestCollect, collect.encode(), 0, 1});
    engine.run();
    EXPECT_FALSE(parent.replies.empty());
    const net::Bytes reply = parent.replies.back();
    parent.replies.clear();
    return std::make_tuple(reply, sent, env.now());
  };
  auto expected_capable = [&](const net::Bytes& reply, double sent,
                              double arrived) {
    sched::Candidate self;
    self.sed_uid = 42;
    self.sed_endpoint = sed.endpoint();
    self.sed_name = sed.name();
    self.est.host_power = 2.5;
    self.est.machines = 3;
    self.est.queue_length = 0.0;
    self.est.queued_work_s = 0.0;
    self.est.free_cpu = 0.95;
    self.est.free_mem_mb = 3584.0;
    self.est.service_comp_s = 3.0 / 2.5 + 3;
    self.est.jobs_completed = 0;
    // The estimation's snapshot time is between the ask and the answer.
    const diet::CandidatesMsg got = diet::CandidatesMsg::decode(reply);
    if (got.candidates.size() == 1) {
      self.est.timestamp = got.candidates[0].est.timestamp;
      EXPECT_GT(self.est.timestamp, sent);
      EXPECT_LT(self.est.timestamp, arrived);
    }
    return diet::CandidatesMsg{key, {self}}.encode();
  };

  for (int repeat = 0; repeat < 2; ++repeat) {
    const auto [capable, sent, arrived] = ask(desc);
    EXPECT_EQ(capable, expected_capable(capable, sent, arrived));

    diet::ProfileDesc other("other", -1, -1, 0);
    const auto [incapable, unused_sent, unused_arrived] = ask(other);
    EXPECT_EQ(incapable, (diet::CandidatesMsg{key, {}}.encode()));
  }

  // A restart re-attaches under a fresh endpoint; the standing candidate
  // must name the new one.
  const net::Endpoint old_endpoint = sed.endpoint();
  sed.fail();
  sed.restart();
  engine.run();
  ASSERT_NE(sed.endpoint(), old_endpoint);
  const auto [capable, sent, arrived] = ask(desc);
  EXPECT_EQ(capable, expected_capable(capable, sent, arrived));
}

// ---------- Status error paths ----------

TEST(StatusErrorPaths, RegistryReportsTypedErrors) {
  naming::Registry registry;
  ASSERT_TRUE(registry.bind("ma", 1).is_ok());

  const gc::Status dup = registry.bind("ma", 2);
  ASSERT_FALSE(dup.is_ok());
  EXPECT_EQ(dup.code(), ErrorCode::kAlreadyExists);
  EXPECT_NE(dup.to_string().find("ma"), std::string::npos);

  const gc::Status missing = registry.unbind("ghost");
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.code(), ErrorCode::kNotFound);

  const auto resolved = registry.resolve("ghost");
  ASSERT_FALSE(resolved.is_ok());
  EXPECT_EQ(resolved.status().code(), ErrorCode::kNotFound);

  // rebind never fails; the original binding is replaced.
  registry.rebind("ma", 3);
  EXPECT_EQ(registry.resolve("ma").value(), 3u);
}

TEST(StatusErrorPaths, FortranWriterReportsIoErrors) {
  io::FortranWriter writer("/nonexistent-dir/deep/x.bin");
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const gc::Status status = writer.record(payload);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kIoError);
}

TEST(StatusErrorPaths, FortranReaderReportsMissingFile) {
  io::FortranReader reader("/nonexistent-dir/deep/x.bin");
  const auto record = reader.record();
  ASSERT_FALSE(record.is_ok());
  EXPECT_EQ(record.status().code(), ErrorCode::kIoError);
}

TEST(StatusErrorPaths, LoadersReportMissingFiles) {
  const auto namelist = io::Namelist::load("/nonexistent-dir/x.nml");
  ASSERT_FALSE(namelist.is_ok());
  EXPECT_FALSE(namelist.status().is_ok());

  const auto tar = io::TarReader::load("/nonexistent-dir/x.tar");
  ASSERT_FALSE(tar.is_ok());
  EXPECT_FALSE(tar.status().is_ok());

  const auto config = diet::Config::load("/nonexistent-dir/x.cfg");
  ASSERT_FALSE(config.is_ok());
  EXPECT_FALSE(config.status().is_ok());
}

TEST(StatusErrorPaths, StatusCarriesCodeAndMessage) {
  const gc::Status ok = Status::ok();
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.code(), ErrorCode::kOk);

  const gc::Status err = make_error(ErrorCode::kOutOfRange, "index 9 of 3");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.code(), ErrorCode::kOutOfRange);
  EXPECT_NE(err.to_string().find("index 9 of 3"), std::string::npos);

  const Result<int> bad =
      make_error(ErrorCode::kInvalidArgument, "not a number");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(-1), -1);

  const Result<int> good = 42;
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 42);
}

}  // namespace
}  // namespace gc
