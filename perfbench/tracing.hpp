// Outside-in layer tracing: everything here observes the program through
// its public seams, so the traced run executes the same library code as the
// untraced one and must reproduce its hashes bit for bit.
//
//   run_stepped   replaces Engine::run() with a loop over Engine::step()
//                 that times every event and attributes it to the event
//                 tag whose executed count moved (DES busy time per tag).
//   CensusHook    a net::FaultHook that never tampers: it only counts
//                 messages and bytes by protocol type.
//   TimedPolicy   a sched::Policy decorator that counts and times rank().
//
// (The engine's controlled-scheduler Strategy seam is deliberately not
// used: it scans the whole calendar on every step.)
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "net/fault.hpp"
#include "sched/policy.hpp"

namespace gc::diet {
class Agent;
}

namespace perfbench {

struct StepProfile {
  std::array<std::uint64_t, gc::des::kEventTagCount> events{};
  std::array<double, gc::des::kEventTagCount> busy_s{};
};

/// Drains the calendar like Engine::run(), attributing host time per tag.
void run_stepped(gc::des::Engine& engine, StepProfile& profile);

class CensusHook final : public gc::net::FaultHook {
 public:
  static constexpr std::size_t kTypes = 64;  ///< protocol types are < 64

  gc::net::FaultDecision on_message(gc::SimTime now, gc::net::NodeId src,
                                    gc::net::NodeId dst,
                                    const gc::net::Envelope& envelope,
                                    std::uint64_t stream_seq) override;

  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t of_type(std::uint32_t type) const {
    return type < kTypes ? by_type_[type] : 0;
  }

 private:
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::array<std::uint64_t, kTypes> by_type_{};
};

/// Shared tallies of every TimedPolicy installed in one world.
struct RankStats {
  std::uint64_t calls = 0;
  std::uint64_t candidates = 0;
  double busy_s = 0.0;
};

class TimedPolicy final : public gc::sched::Policy {
 public:
  TimedPolicy(std::unique_ptr<gc::sched::Policy> inner, RankStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void rank(std::vector<gc::sched::Candidate>& candidates,
            const gc::sched::RequestContext& request, gc::Rng& rng) override;

 private:
  std::unique_ptr<gc::sched::Policy> inner_;
  RankStats& stats_;
};

/// Replaces `agent`'s policy with a TimedPolicy around a fresh instance of
/// the same named policy.
void install_timed_policy(gc::diet::Agent& agent, RankStats& stats);

}  // namespace perfbench
