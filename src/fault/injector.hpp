// Deterministic per-message fault injector (the net::FaultHook impl).
//
// Every decision is drawn from a private Rng seeded by hashing the run
// seed with the message's coordinates (endpoints, type, per-stream send
// counter). Two runs of the same scenario therefore tamper with exactly
// the same messages, whatever order the calendar runs them in — the
// decision depends only on *which* message this is, never on when it was
// sent or what was decided before it.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>

#include "fault/plan.hpp"
#include "net/fault.hpp"

namespace gc::fault {

/// Counters for the end-of-run fault summary. Atomics, like the mutex
/// below, so a hook consulted off the dispatch context still counts
/// exactly.
struct InjectorStats {
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> delayed{0};
};

class Injector final : public net::FaultHook {
 public:
  Injector(const FaultPlan& plan, std::uint64_t seed)
      : plan_(plan), seed_(seed) {}

  net::FaultDecision on_message(SimTime now, net::NodeId src, net::NodeId dst,
                                const net::Envelope& envelope,
                                std::uint64_t stream_seq) override;

  /// Partitions a node: every message into or out of it is dropped until
  /// heal(). Models a WAN link cut, so unlike a crash the process itself
  /// keeps running (and keeps its state) throughout.
  void isolate(net::NodeId node);
  void heal(net::NodeId node);

  [[nodiscard]] const InjectorStats& stats() const { return stats_; }

 private:
  const FaultPlan plan_;
  const std::uint64_t seed_;
  InjectorStats stats_;
  mutable std::mutex mutex_;  ///< guards isolated_
  std::unordered_set<net::NodeId> isolated_;
};

}  // namespace gc::fault
