// Fault-injection seam of the Env.
//
// A FaultHook, when installed on a SimEnv, is consulted once
// per send() and may drop the message, schedule a duplicate copy, or add
// extra delivery delay — the three message-level faults of a real WAN
// (the paper's campaign ran across five Grid'5000 sites for days; lost
// and reordered messages are the norm there, not the exception).
//
// The hook lives in net (like Topology) so that the fault module can
// depend on net without a cycle; the concrete deterministic implementation
// is fault::Injector. With no hook installed the send path is exactly the
// pre-existing code — zero cost when off.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "net/message.hpp"

namespace gc::net {

/// What the fault layer decided for one message entering the wire.
struct FaultDecision {
  bool drop = false;           ///< never delivered
  bool duplicate = false;      ///< a second copy delivers dup_lag_s later
  double extra_delay_s = 0.0;  ///< added to the modeled transfer time
  double dup_lag_s = 0.0;      ///< extra delay of the duplicate copy

  /// A tampered message leaves the per-stream FIFO model: it is delivered
  /// out of band (possibly late, twice, or never), exactly like a packet
  /// that left the TCP fast path.
  [[nodiscard]] bool tampered() const {
    return drop || duplicate || extra_delay_s > 0.0;
  }
};

/// Per-message fault oracle. `stream_seq` is the 1-based send counter of
/// the (from, to) endpoint pair, maintained by the Env only while a hook
/// is installed; a deterministic hook can hash it (with the endpoints and
/// message type) so every replay of a run makes identical decisions.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  virtual FaultDecision on_message(SimTime now, NodeId src, NodeId dst,
                                   const Envelope& envelope,
                                   std::uint64_t stream_seq) = 0;
};

}  // namespace gc::net
