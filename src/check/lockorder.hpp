// Runtime lock-order (deadlock-potential) checker.
//
// Every instrumented mutex acquisition is reported to a global recorder
// under a stable name ("pool.queue", "pool.submit", ...). The recorder
// keeps, per thread, the stack of names currently held and, globally, the
// directed graph of observed held-before-acquired edges. A new edge that
// closes a cycle means two threads can acquire the same two locks in
// opposite orders — a potential deadlock — and trips an invariant failure
// whose message shows this thread's held stack and the held stack first
// recorded for the reverse path.
//
// Names identify lock *roles*, not instances: all Region mutexes share
// "pool.region". That is the useful granularity for ordering bugs and
// keeps the graph tiny. Re-acquiring a role already held by the same
// thread is reported too (self-deadlock for the non-recursive mutexes
// this repo uses).
//
// Everything here is compiled unconditionally (tests drive it directly);
// instrumented call sites are gated on gc::check::kEnabled so production
// builds with GC_CHECK=OFF pay nothing.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "check/invariant.hpp"

namespace gc::check {

class LockOrderRecorder {
 public:
  static LockOrderRecorder& instance();

  /// Reports intent to acquire `name` (call just before locking, so a
  /// genuinely deadlocked thread has already recorded the closing edge).
  void acquired(const char* name, const char* file, int line);
  /// Reports release of `name` (most recent acquisition of that name).
  void released(const char* name);

  /// Forgets the recorded graph (not the per-thread held stacks). Tests
  /// use this to isolate scenarios.
  void reset();

  [[nodiscard]] std::size_t edge_count() const;

 private:
  LockOrderRecorder() = default;

  // Caller holds mutex_. True if `to` is reachable from `from` via
  // recorded edges.
  [[nodiscard]] bool reaches(const std::string& from,
                             const std::string& to) const;

  mutable std::mutex mutex_;
  /// edges_[a][b] = example held-stack text recorded when the edge
  /// "a held while acquiring b" was first seen.
  std::map<std::string, std::map<std::string, std::string>> edges_;
};

/// RAII guard: records the acquisition order, then locks. Drop-in for
/// std::lock_guard at instrumented sites.
template <typename Mutex>
class TrackedLock {
 public:
  TrackedLock(Mutex& m, const char* name, const char* file, int line)
      : noter_(name, file, line), lock_(m) {}

 private:
  struct Noter {
    Noter(const char* n, const char* file, int line) : name(n) {
      if constexpr (kEnabled) {
        LockOrderRecorder::instance().acquired(name, file, line);
      }
    }
    ~Noter() {
      if constexpr (kEnabled) LockOrderRecorder::instance().released(name);
    }
    Noter(const Noter&) = delete;
    Noter& operator=(const Noter&) = delete;
    const char* name;
  };
  Noter noter_;
  std::lock_guard<Mutex> lock_;
};

/// Companion for std::unique_lock regions that unlock/relock mid-scope
/// (condition-variable loops): mirrors the lock's state into the
/// recorder. Waiting on a cv counts as holding the lock, which is
/// conservative and safe — a sleeping thread records no new edges.
class LockTracker {
 public:
  LockTracker(const char* name, const char* file, int line)
      : name_(name), file_(file), line_(line) {
    if constexpr (kEnabled) {
      LockOrderRecorder::instance().acquired(name_, file_, line_);
      held_ = true;
    }
  }
  ~LockTracker() {
    if constexpr (kEnabled) {
      if (held_) LockOrderRecorder::instance().released(name_);
    }
  }
  LockTracker(const LockTracker&) = delete;
  LockTracker& operator=(const LockTracker&) = delete;

  void unlocked() {
    if constexpr (kEnabled) {
      LockOrderRecorder::instance().released(name_);
      held_ = false;
    }
  }
  void relocked() {
    if constexpr (kEnabled) {
      LockOrderRecorder::instance().acquired(name_, file_, line_);
      held_ = true;
    }
  }

 private:
  const char* name_;
  const char* file_;
  int line_;
  bool held_ = false;
};

}  // namespace gc::check

/// Instrumented lock_guard with call-site capture.
#define GC_TRACKED_LOCK(var, mtx, lock_name)        \
  ::gc::check::TrackedLock<std::mutex> var(mtx, lock_name, __FILE__, \
                                           __LINE__)
