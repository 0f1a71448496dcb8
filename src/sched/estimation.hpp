// Performance estimation vectors.
//
// When an agent hierarchy "collects computation abilities from servers"
// (Section 2.1), what travels up the tree is one Estimation per capable
// SED. The default deployment fills the generic fields; plug-in
// schedulers (paper ref [2]) may additionally fill service_comp_s with an
// application-specific completion estimate.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/codec.hpp"
#include "net/message.hpp"

namespace gc::sched {

struct Estimation {
  double timestamp = 0.0;       ///< when the SED produced this vector
  double host_power = 1.0;      ///< aggregate relative power of the SED's machines
  std::int32_t machines = 1;    ///< machines behind the SED
  double queue_length = 0.0;    ///< jobs running + waiting at the SED
  double queued_work_s = 0.0;   ///< modeled seconds of work in that queue
  double free_cpu = 1.0;        ///< frontal node idle fraction
  double free_mem_mb = 0.0;
  double service_comp_s = -1.0; ///< plugin estimate for THIS service; <0 = unknown
  std::uint64_t jobs_completed = 0;
  /// Filled agent-side, never by the SED: requests this MA has already
  /// assigned to the SED and not yet seen completed. This is the
  /// "list of requests" state of Section 2.1 and what makes the default
  /// policy distribute 100 simultaneous requests evenly.
  double agent_assigned = 0.0;
  /// Filled agent-side from the replica catalog, and deliberately NOT
  /// serialized (each agent recomputes it from its own catalog level, so
  /// the wire format — and the modeled transfer times of fault-free runs
  /// with no persistent data — is unchanged): bytes of the request's
  /// persistent inputs that are known to the hierarchy but not resident
  /// on this SED, i.e. what scheduling here would have to move.
  double data_bytes_to_move = 0.0;
  /// Modeled seconds to move them from the nearest replicas over the
  /// platform's links (catalog + topology cost model); 0 when nothing
  /// moves or the topology cannot price it.
  double data_xfer_s = 0.0;

  /// Serialized size: nine 8-byte fields and `machines`.
  static constexpr std::size_t kWireBytes = 9 * 8 + 4;

  void serialize(net::Writer& w) const;
  static Estimation deserialize(net::Reader& r);
};

/// One schedulable server, as seen by an agent.
struct Candidate {
  std::uint64_t sed_uid = 0;       ///< stable id (registration order)
  net::Endpoint sed_endpoint = net::kNullEndpoint;
  std::string sed_name;
  Estimation est;

  /// Serialized size with an empty name (uid, endpoint, name length,
  /// estimation): no wire candidate is shorter.
  static constexpr std::size_t kMinWireBytes =
      8 + 4 + 4 + Estimation::kWireBytes;
  [[nodiscard]] std::size_t wire_size() const {
    return kMinWireBytes + sed_name.size();
  }

  void serialize(net::Writer& w) const;
  static Candidate deserialize(net::Reader& r);
};

/// Serialized size of a candidate list: the count and every candidate.
std::size_t candidates_wire_size(std::span<const Candidate> c);
void serialize_candidates(net::Writer& w, std::span<const Candidate> c);
/// Reads a candidate list and appends its entries to `out`, returning how
/// many it appended. A list cut short still appends, and counts, the
/// candidate it was reading when the bytes ran out, zero-filled from
/// there; r.ok() turns false.
std::size_t append_candidates(net::Reader& r, std::vector<Candidate>& out);
std::vector<Candidate> deserialize_candidates(net::Reader& r);

}  // namespace gc::sched
