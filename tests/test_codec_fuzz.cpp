// Codec round-trip fuzz: for every DIET protocol message type, random
// instances must satisfy encode -> decode -> encode byte-identity (the
// wire format is part of the determinism contract — a lossy or order-
// sensitive codec would break cross-run reproducibility). Plus explicit
// Status error-path coverage for the fallible APIs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "diet/config.hpp"
#include "diet/protocol.hpp"
#include "dtm/messages.hpp"
#include "io/fortran.hpp"
#include "io/namelist.hpp"
#include "io/tar.hpp"
#include "naming/registry.hpp"
#include "net/codec.hpp"

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

/// encode -> decode -> encode must reproduce the first byte stream.
template <typename Msg, typename MakeFn>
void roundtrip(MakeFn make) {
  Rng rng(20260805);
  for (int round = 0; round < kRounds; ++round) {
    const Msg msg = make(rng);
    const net::Bytes first = msg.encode();
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
  roundtrip<diet::RequestSubmitMsg>([](Rng& rng) {
    diet::RequestSubmitMsg msg;
    msg.client_request_id = rng.next_u64();
    msg.desc = random_desc(rng);
    msg.in_bytes = static_cast<std::int64_t>(rng.uniform_u64(1ULL << 40));
    msg.deps = random_deps(rng);
    return msg;
  });
}

TEST(CodecFuzz, RequestCollectMsg) {
  roundtrip<diet::RequestCollectMsg>([](Rng& rng) {
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
  roundtrip<diet::CandidatesMsg>([](Rng& rng) {
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
  roundtrip<diet::RequestReplyMsg>([](Rng& rng) {
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
  roundtrip<diet::RequestCollectMsg>([](Rng& rng) {
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
  roundtrip<diet::PeerCandidatesMsg>([](Rng& rng) {
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
