// Scripted, fully deterministic fault hook for bounded model-checking
// scenarios.
//
// The stochastic Injector (fault/injector.hpp) is right for chaos
// campaigns but wrong for exhaustive exploration: the model checker needs
// the *same* faults on every replayed schedule, placed by meaning ("the
// second kCallData anywhere in the run") rather than by hashed
// coordinates. A ScriptedHook holds an ordered list of rules keyed by
// message type and the global occurrence index of that type; each rule
// fires at most once. Occurrence counting is global across streams so a
// rule's target does not depend on which SED won a scheduling race —
// the faults are part of the scenario, not of the schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fault.hpp"

namespace gc::fault {

class ScriptedHook final : public net::FaultHook {
 public:
  struct Rule {
    std::uint32_t msg_type = 0;   ///< diet::MsgType value to match
    std::uint64_t occurrence = 1; ///< 1-based index among sends of this type
    net::FaultDecision decision;
    bool fired = false;
  };

  ScriptedHook() = default;

  /// Drops the nth occurrence of a message type.
  ScriptedHook& drop(std::uint32_t msg_type, std::uint64_t occurrence);
  /// Duplicates the nth occurrence; the copy delivers dup_lag_s after the
  /// original (0 = an exact-timestamp tie, a genuine co-enabled race).
  ScriptedHook& duplicate(std::uint32_t msg_type, std::uint64_t occurrence,
                          double dup_lag_s = 0.0);
  /// Delays the nth occurrence by extra_delay_s beyond the modeled time.
  ScriptedHook& delay(std::uint32_t msg_type, std::uint64_t occurrence,
                      double extra_delay_s);

  /// Re-arms every rule and zeroes the occurrence counters, so one hook
  /// can serve many exploration runs of the same scenario.
  void reset();

  net::FaultDecision on_message(SimTime now, net::NodeId src, net::NodeId dst,
                                const net::Envelope& envelope,
                                std::uint64_t stream_seq) override;

 private:
  std::vector<Rule> rules_;
  /// Global sends seen per message type (not per stream — see header).
  std::vector<std::uint64_t> seen_by_type_;
};

}  // namespace gc::fault
