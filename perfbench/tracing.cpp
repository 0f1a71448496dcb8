#include "tracing.hpp"

#include "common/log.hpp"
#include "diet/agent.hpp"
#include "harness.hpp"

namespace perfbench {

void run_stepped(gc::des::Engine& engine, StepProfile& profile) {
  using gc::des::EventTag;
  constexpr std::size_t kTags = gc::des::kEventTagCount;
  std::array<std::uint64_t, kTags> seen{};
  for (std::size_t t = 0; t < kTags; ++t) {
    seen[t] = engine.events_executed_by_tag(static_cast<EventTag>(t));
  }
  for (;;) {
    const Clock::time_point start = Clock::now();
    if (!engine.step()) break;
    const double dt = seconds_since(start);
    // Exactly one event ran: find the tag whose executed count moved.
    for (std::size_t t = 0; t < kTags; ++t) {
      const std::uint64_t now =
          engine.events_executed_by_tag(static_cast<EventTag>(t));
      if (now != seen[t]) {
        seen[t] = now;
        ++profile.events[t];
        profile.busy_s[t] += dt;
        break;
      }
    }
  }
}

gc::net::FaultDecision CensusHook::on_message(gc::SimTime /*now*/,
                                              gc::net::NodeId /*src*/,
                                              gc::net::NodeId /*dst*/,
                                              const gc::net::Envelope& envelope,
                                              std::uint64_t /*stream_seq*/) {
  ++messages_;
  bytes_ += static_cast<std::uint64_t>(envelope.wire_size());
  if (envelope.type < kTypes) ++by_type_[envelope.type];
  return {};
}

void TimedPolicy::rank(std::vector<gc::sched::Candidate>& candidates,
                       const gc::sched::RequestContext& request, gc::Rng& rng) {
  ++stats_.calls;
  stats_.candidates += candidates.size();
  const Clock::time_point start = Clock::now();
  inner_->rank(candidates, request, rng);
  stats_.busy_s += seconds_since(start);
}

void install_timed_policy(gc::diet::Agent& agent, RankStats& stats) {
  std::unique_ptr<gc::sched::Policy> inner =
      gc::sched::make_policy(agent.policy().name());
  GC_CHECK_MSG(inner != nullptr,
               "policy " + agent.policy().name() + " cannot be re-created");
  agent.set_policy(std::make_unique<TimedPolicy>(std::move(inner), stats));
}

}  // namespace perfbench
