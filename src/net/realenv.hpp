// Thread-backed Env: wall-clock time, a single dispatcher thread for all
// actor callbacks, and worker threads for service executions.
//
// The runnable examples use this backend: the middleware behaves exactly as
// in simulation (same actors, same protocol), but solve functions run real
// RAMSES/GALICS code and take real time. Modeled network delays from the
// topology are still applied (scaled by `delay_scale`, default 1), so even
// a laptop run shows realistic finding times.
//
// gclint: allow-file(wallclock) RealEnv IS the wall-clock backend
// gclint: allow-file(thread) dispatcher/worker threads are this backend's job
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/env.hpp"
#include "net/fault.hpp"

namespace gc::net {

class RealEnv final : public Env {
 public:
  explicit RealEnv(const Topology& topology, double delay_scale = 1.0);
  ~RealEnv() override;

  RealEnv(const RealEnv&) = delete;
  RealEnv& operator=(const RealEnv&) = delete;

  /// Starts the dispatcher thread. Must be called before any send().
  void start();

  /// Waits until no timer, message, or execution is outstanding, then stops
  /// the dispatcher. Safe to call more than once.
  void stop();

  /// Blocks the calling (non-dispatcher) thread until there is no pending
  /// work, without stopping the dispatcher.
  void wait_idle();

  [[nodiscard]] SimTime now() const override;
  TimerId post_after(SimTime delay, des::EventFn fn) override;
  bool cancel_timer(TimerId id) override;
  void detach(Endpoint endpoint) override;
  void send(Envelope envelope) override;
  void execute(NodeId node, double modeled_seconds, std::function<int()> work,
               std::function<void(int)> done) override;
  [[nodiscard]] bool is_simulated() const override { return false; }

  /// Installs (or clears, with nullptr) the fault-injection hook. The hook
  /// must outlive the env and be installed before start(); with none
  /// installed the send path is unchanged.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

 private:
  Endpoint do_attach(Actor& actor, NodeId node) override;
  void dispatcher_loop();
  TimerId enqueue(SimTime deadline, des::EventFn fn);
  /// Live (non-cancelled) queued events; callers hold mutex_.
  [[nodiscard]] std::size_t live_queued() const {
    return queue_.size() - cancelled_.size();
  }

  struct Timed {
    SimTime deadline;
    std::uint64_t seq;
    des::EventFn fn;
  };
  struct Later {
    bool operator()(const Timed& a, const Timed& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  struct Entry {
    Actor* actor;
    NodeId node;
  };

  double delay_scale_;
  std::chrono::steady_clock::time_point origin_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::priority_queue<Timed, std::vector<Timed>, Later> queue_;
  std::unordered_set<std::uint64_t> queued_ids_;   // guarded by mutex_
  std::unordered_set<std::uint64_t> cancelled_;    // subset of queued_ids_
  std::uint64_t next_seq_ = 1;
  bool running_ = false;
  bool stop_requested_ = false;
  bool stopped_ = false;  ///< stop() completed; posting now is a bug
  int in_flight_ = 0;  ///< executions + the event currently dispatching

  std::unordered_map<Endpoint, Entry> actors_;  // guarded by mutex_
  Endpoint next_endpoint_ = 1;

  /// Per-stream send counters for the fault hook (guarded by mutex_,
  /// populated only while a hook is installed).
  std::unordered_map<std::uint64_t, std::uint64_t> fault_seq_;
  FaultHook* fault_hook_ = nullptr;  ///< set before start(); read-only after

  std::thread dispatcher_;
  std::vector<std::thread> workers_;  // guarded by mutex_
};

}  // namespace gc::net
