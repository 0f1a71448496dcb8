// Wire protocol between DIET actors (client, MA, LA, SED).
//
// Message flow for one diet_call:
//
//   client --kRequestSubmit--> MA
//   MA     --kRequestCollect-> LAs --kRequestCollect-> SEDs
//   SEDs   --kCandidates-----> LAs --kCandidates-----> MA   (sorted per hop)
//   MA     --kRequestReply---> client                       (chosen SED)
//   client --kCallData-------> SED                          (IN/INOUT data)
//   SED    --kCallStarted----> client                       (service began)
//   SED    --kCallResult-----> client                       (OUT/INOUT data)
//   SED    --kJobDone--------> LA --kJobDone--> MA          (bookkeeping)
//
// plus deployment-time registration and periodic heartbeats.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "diet/profile.hpp"
#include "net/message.hpp"
#include "sched/estimation.hpp"

namespace gc::diet {

/// Solve-status value a SED returns when a call referenced persistent
/// data it no longer holds (evicted / never seen); the client reacts by
/// resending the full data.
inline constexpr std::int32_t kMissingDataStatus = -3;

enum MsgType : std::uint32_t {
  kSedRegister = 1,
  kAgentRegister = 2,
  kRegisterAck = 3,
  kRequestSubmit = 10,
  kRequestCollect = 11,
  kCandidates = 12,
  kRequestReply = 13,
  kCallData = 20,
  kCallStarted = 21,
  kCallResult = 22,
  kJobDone = 23,
  // 30 is retired (it carried periodic SED load reports): never reuse it.
  kHeartbeat = 31,
  // --- MA federation (peer master agents, multi-hierarchy deployments) ---
  kPeerAnnounce = 32,    ///< MA -> peer MA: name/uid + offered services
  kPeerCollect = 33,     ///< MA -> peer MA: forwarded RequestCollectMsg
  kPeerCandidates = 34,  ///< peer MA -> MA: top-k merged answer
};

struct SedRegisterMsg {
  std::uint64_t sed_uid = 0;
  std::string name;
  double host_power = 1.0;
  std::int32_t machines = 1;
  std::vector<ProfileDesc> services;

  net::Bytes encode() const;
  static SedRegisterMsg decode(const net::Bytes& payload);
};

struct AgentRegisterMsg {
  std::string name;
  std::vector<std::string> services;  ///< service paths available below

  net::Bytes encode() const;
  static AgentRegisterMsg decode(const net::Bytes& payload);
};

/// One persistent input the request depends on: the data id plus the wire
/// volume shipping it would cost. Rides submit/collect messages so agents
/// can price data locality against their replica catalogs.
struct DataDep {
  std::string data_id;
  std::int64_t bytes = 0;
};

struct RequestSubmitMsg {
  std::uint64_t client_request_id = 0;
  ProfileDesc desc;
  std::int64_t in_bytes = 0;
  /// Persistent inputs (trailing-optional on the wire: encoded only when
  /// non-empty, so requests without persistent data — every fault-free
  /// volatile run — keep their exact pre-catalog encoding).
  std::vector<DataDep> deps;

  net::Bytes encode() const;
  static RequestSubmitMsg decode(const net::Bytes& payload);
};

struct RequestCollectMsg {
  std::uint64_t request_key = 0;  ///< MA-global key
  ProfileDesc desc;
  std::int64_t in_bytes = 0;
  /// Remaining time budget for answering; each agent waits at most this
  /// long and hands its children a smaller share, so partial answers from
  /// a subtree still reach the root before IT gives up. 0 = use the
  /// receiving agent's configured timeout.
  double timeout_s = 0.0;
  /// Persistent inputs, forwarded from the submit (trailing-optional).
  std::vector<DataDep> deps;
  /// Federation section (trailing-optional as a unit): uid of the MA the
  /// request entered the federation at, and how many further peer hops the
  /// receiving MA may still grant. Both zero on every intra-hierarchy
  /// collect, which keeps the pre-federation encoding byte-identical; when
  /// either is set the dep count is always written (possibly 0) so the
  /// section's position is unambiguous.
  std::uint32_t origin_uid = 0;
  std::uint32_t ttl = 0;

  net::Bytes encode() const;
  static RequestCollectMsg decode(const net::Bytes& payload);
};

struct CandidatesMsg {
  std::uint64_t request_key = 0;
  std::vector<sched::Candidate> candidates;

  net::Bytes encode() const;
  /// The same bytes from a key and a list held elsewhere (a SED answers
  /// with its one standing candidate, or none).
  static net::Bytes encode(std::uint64_t request_key,
                           std::span<const sched::Candidate> candidates);
  /// Reads the fields before the candidate list and leaves `r` at the
  /// list, for a receiver that appends it where it keeps candidates
  /// (sched::append_candidates). decode() is read_header plus the list.
  void read_header(net::Reader& r);
  static CandidatesMsg decode(const net::Bytes& payload);
};

struct RequestReplyMsg {
  std::uint64_t client_request_id = 0;
  bool found = false;
  sched::Candidate chosen;
  /// Of the request's declared deps: ids the MA's catalog can resolve to
  /// a live replica somewhere in the hierarchy. The client ships these as
  /// references even to a SED that does not hold them — the SED pulls
  /// them peer-to-peer. Trailing-optional on the wire.
  std::vector<std::string> available_ids;

  net::Bytes encode() const;
  static RequestReplyMsg decode(const net::Bytes& payload);
};

struct CallDataMsg {
  std::uint64_t call_id = 0;  ///< client request id, reused
  std::string path;
  std::int32_t last_in = -1;
  std::int32_t last_inout = -1;
  std::int32_t last_out = -1;
  net::Bytes inputs;  ///< Profile::serialize_inputs payload

  net::Bytes encode() const;
  static CallDataMsg decode(const net::Bytes& payload);
};

struct CallStartedMsg {
  std::uint64_t call_id = 0;

  net::Bytes encode() const;
  static CallStartedMsg decode(const net::Bytes& payload);
};

struct CallResultMsg {
  std::uint64_t call_id = 0;
  std::int32_t solve_status = 0;  ///< solve function's return value
  net::Bytes outputs;             ///< Profile::serialize_outputs payload

  net::Bytes encode() const;
  static CallResultMsg decode(const net::Bytes& payload);
};

struct JobDoneMsg {
  std::uint64_t sed_uid = 0;
  std::uint64_t call_id = 0;
  double busy_seconds = 0.0;

  net::Bytes encode() const;
  static JobDoneMsg decode(const net::Bytes& payload);
};

/// Periodic liveness beacon from a child (SED or LA) to its parent agent.
/// A parent that misses them long enough marks the child dead and stops
/// offering it in finding results; a later heartbeat revives it.
struct HeartbeatMsg {
  std::uint64_t uid = 0;  ///< sed uid; 0 for an LA (identified by sender)
  std::uint64_t seq = 0;  ///< per-sender beacon counter, for tracing

  net::Bytes encode() const;
  static HeartbeatMsg decode(const net::Bytes& payload);
};

/// MA -> peer MA advertisement: sent on federation connect and whenever
/// the sender's service set changes, so every peer knows which shards can
/// answer which services before forwarding a collect.
struct PeerAnnounceMsg {
  std::uint32_t ma_uid = 0;
  std::string name;
  std::vector<std::string> services;  ///< service paths offered by the shard

  net::Bytes encode() const;
  static PeerAnnounceMsg decode(const net::Bytes& payload);
};

/// Peer MA's answer to a kPeerCollect: the shard's best candidates,
/// already sorted and truncated to the federation's top-k bound so
/// candidate fan-in at the originating MA stays constant per peer.
struct PeerCandidatesMsg {
  std::uint64_t request_key = 0;
  std::uint32_t ma_uid = 0;  ///< answering shard, for tracing
  std::vector<sched::Candidate> candidates;

  net::Bytes encode() const;
  /// As CandidatesMsg::read_header.
  void read_header(net::Reader& r);
  static PeerCandidatesMsg decode(const net::Bytes& payload);
};

}  // namespace gc::diet
