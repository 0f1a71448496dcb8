#include "fault/scripted.hpp"

#include <algorithm>

namespace gc::fault {

ScriptedHook& ScriptedHook::drop(std::uint32_t msg_type,
                                 std::uint64_t occurrence) {
  Rule rule;
  rule.msg_type = msg_type;
  rule.occurrence = occurrence;
  rule.decision.drop = true;
  rules_.push_back(rule);
  return *this;
}

ScriptedHook& ScriptedHook::duplicate(std::uint32_t msg_type,
                                      std::uint64_t occurrence,
                                      double dup_lag_s) {
  Rule rule;
  rule.msg_type = msg_type;
  rule.occurrence = occurrence;
  rule.decision.duplicate = true;
  rule.decision.dup_lag_s = dup_lag_s;
  rules_.push_back(rule);
  return *this;
}

ScriptedHook& ScriptedHook::delay(std::uint32_t msg_type,
                                  std::uint64_t occurrence,
                                  double extra_delay_s) {
  Rule rule;
  rule.msg_type = msg_type;
  rule.occurrence = occurrence;
  rule.decision.extra_delay_s = extra_delay_s;
  rules_.push_back(rule);
  return *this;
}

void ScriptedHook::reset() {
  for (Rule& rule : rules_) rule.fired = false;
  std::fill(seen_by_type_.begin(), seen_by_type_.end(), 0);
}

net::FaultDecision ScriptedHook::on_message(SimTime /*now*/,
                                            net::NodeId /*src*/,
                                            net::NodeId /*dst*/,
                                            const net::Envelope& envelope,
                                            std::uint64_t /*stream_seq*/) {
  if (envelope.type >= seen_by_type_.size()) {
    seen_by_type_.resize(envelope.type + 1, 0);
  }
  const std::uint64_t occurrence = ++seen_by_type_[envelope.type];
  for (Rule& rule : rules_) {
    if (rule.fired || rule.msg_type != envelope.type ||
        rule.occurrence != occurrence) {
      continue;
    }
    rule.fired = true;
    return rule.decision;
  }
  return net::FaultDecision{};
}

}  // namespace gc::fault
