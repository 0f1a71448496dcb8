// Wire protocol of the data-management subsystem.
//
// Rides the same Envelope transport as the DIET scheduling protocol
// (diet/protocol.hpp) with a disjoint message-type range, and carries the
// originating request's trace id wherever a transfer happens on a call's
// behalf:
//
//   SED --kDataRegister---> LA --kDataRegister(fwd)--> MA   (store/replicate)
//   SED --kDataUnregister-> LA --kDataUnregister(fwd)-> MA  (evict/crash)
//   SED --kDataLocate-----> LA [--kDataLocate(fwd)--> MA]   (reference miss)
//   LA/MA --kDataLocation-> SED                             (known replicas)
//   SED --kDataPull-------> peer SED                        (fetch request)
//   peer --kDataPush------> SED                             (the bytes)
//   LA  --kDataReplicate--> SED                             (pull a copy)
//
// kDataPush prices the transfer on the modeled link: the payload carries
// the serialized value, and Envelope::modeled_extra_bytes charges the
// remainder for values (files) whose bytes never travel in the payload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtm/catalog.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"

namespace gc::dtm {

/// Message tags; disjoint from diet::MsgType (1..31).
enum DtmMsgType : std::uint32_t {
  kDataRegister = 40,
  kDataUnregister = 41,
  kDataLocate = 42,
  kDataLocation = 43,
  kDataPull = 44,
  kDataPush = 45,
  kDataReplicate = 46,
  kDataStripe = 47,
};

void serialize_replica(net::Writer& w, const ReplicaInfo& info);
ReplicaInfo deserialize_replica(net::Reader& r);

/// SED -> parent (forwarded up): "I now hold `data_id`".
struct DataRegisterMsg {
  std::string data_id;
  ReplicaInfo holder;
  /// Desired total replica count. >1 asks the direct parent LA to
  /// replicate onto siblings; forwarded copies and pulled/replicated
  /// copies carry 1 so replication does not cascade.
  std::int32_t replicas = 1;

  net::Bytes encode() const;
  static DataRegisterMsg decode(const net::Bytes& payload);
};

/// SED -> parent (forwarded up): "I no longer hold `data_id`"
/// (empty data_id = drop everything this SED held).
struct DataUnregisterMsg {
  std::uint64_t sed_uid = 0;
  std::string data_id;

  net::Bytes encode() const;
  static DataUnregisterMsg decode(const net::Bytes& payload);
};

/// SED -> parent (forwarded up): "who holds `data_id`?" The answer goes
/// straight back to the requester's endpoint, not down the tree.
struct DataLocateMsg {
  std::string data_id;
  std::uint64_t requester_uid = 0;
  net::Endpoint requester_endpoint = net::kNullEndpoint;
  /// Set when a root MA forwards the locate across a federation edge.
  /// A peer that receives it answers the requester only on a hit (a miss
  /// stays silent — another peer may hold the data) and never re-forwards.
  /// Trailing-optional on the wire: absent when false, so intra-hierarchy
  /// locates keep their pre-federation encoding.
  bool federated = false;

  net::Bytes encode() const;
  static DataLocateMsg decode(const net::Bytes& payload);
};

/// Agent -> requesting SED: known replicas (empty = nobody holds it).
struct DataLocationMsg {
  std::string data_id;
  std::vector<ReplicaInfo> replicas;

  net::Bytes encode() const;
  static DataLocationMsg decode(const net::Bytes& payload);
};

/// SED -> peer SED: "send me `data_id`".
struct DataPullMsg {
  std::string data_id;
  std::uint64_t requester_uid = 0;

  net::Bytes encode() const;
  static DataPullMsg decode(const net::Bytes& payload);
};

/// Peer SED -> SED: the serialized value (found = 0 when the peer
/// evicted it since the catalog answered).
struct DataPushMsg {
  std::string data_id;
  bool found = false;
  net::Bytes value;  ///< serialized ArgValue (diet codec); opaque here
  std::int64_t charged_bytes = 0;

  net::Bytes encode() const;
  static DataPushMsg decode(const net::Bytes& payload);
};

/// One stripe of an MPWide-style striped bulk transfer. The holder SED
/// splits a big push into `stripe_count` stripes, each sent as its own
/// out-of-band envelope (= its own parallel connection under the flow
/// model); stripe 0 carries the serialized value, the rest charge their
/// slice via Envelope::modeled_extra_bytes. The receiving SED reassembles
/// by `transfer_id` and completes the fetch when all stripes arrived.
struct DataStripeMsg {
  std::uint64_t transfer_id = 0;  ///< (holder uid << 32) | counter
  std::string data_id;
  std::uint32_t stripe_index = 0;
  std::uint32_t stripe_count = 1;
  bool found = false;
  net::Bytes value;  ///< serialized ArgValue; only on stripe 0
  std::int64_t total_bytes = 0;  ///< full transfer size (all stripes)
  /// Always the envelope's receiver. Kept on the wire because its 4 bytes
  /// are part of every stripe's modeled size: dropping it would shift the
  /// flow-model timing of every striped transfer.
  net::Endpoint dest_endpoint = net::kNullEndpoint;

  net::Bytes encode() const;
  static DataStripeMsg decode(const net::Bytes& payload);
};

/// Parent LA -> SED: "pull a copy of `data_id` from `holder`"
/// (write-replication fan-out).
struct DataReplicateMsg {
  std::string data_id;
  ReplicaInfo holder;

  net::Bytes encode() const;
  static DataReplicateMsg decode(const net::Bytes& payload);
};

}  // namespace gc::dtm
