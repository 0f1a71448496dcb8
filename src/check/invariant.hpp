// Debug invariant layer.
//
// GC_INVARIANT(cond, msg) states a property the middleware relies on but
// cannot afford to re-derive on every hot-path operation in release
// builds: monotone DES timestamps, per-link FIFO delivery, request-id
// uniqueness, store accounting. The checks compile to nothing unless
// GC_CHECK_INVARIANTS is defined (CMake option GC_CHECK, default ON), so
// instrumented code pays zero cost when the layer is off.
//
// Unlike GC_CHECK (always on, aborts), a tripped invariant routes through
// a swappable failure handler so tests can seed a violation and assert it
// is caught without dying. The default handler prints file:line and
// aborts, exactly like gc::fatal.
//
// This module depends on nothing else in the repo so that any subsystem
// (including common/) can adopt it without a cycle.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace gc::check {

#ifdef GC_CHECK_INVARIANTS
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Receives every tripped invariant. Installing a handler that returns
/// (instead of aborting) lets a test drive a checker past a violation;
/// production code must treat a tripped invariant as fatal.
using FailureHandler = void (*)(const char* file, int line,
                                const std::string& what);

/// nullptr restores the default print-and-abort handler.
void set_failure_handler(FailureHandler handler);

/// Reports a violated invariant through the installed handler.
void fail(const char* file, int line, const std::string& what);

/// Number of invariant failures reported since process start (or the last
/// reset_failure_count()). Tests use this to assert a seeded violation was
/// actually caught.
[[nodiscard]] std::uint64_t failure_count();
void reset_failure_count();

/// Checks that ids in a live set are unique: add() of an id already live
/// is a violation. remove() tolerates unknown ids (callers often erase on
/// multiple paths).
class UniqueIds {
 public:
  explicit UniqueIds(std::string what) : what_(std::move(what)) {}

  void add(std::uint64_t id, const char* file, int line);
  void remove(std::uint64_t id) { live_.erase(id); }
  [[nodiscard]] bool contains(std::uint64_t id) const {
    return live_.count(id) > 0;
  }
  [[nodiscard]] std::size_t size() const { return live_.size(); }
  void reset() { live_.clear(); }

 private:
  std::string what_;
  std::unordered_set<std::uint64_t> live_;
};

/// Shadow accounting for a byte-bounded store (the SED DataManager):
/// tracks ids and their sizes independently of the audited container and
/// fails when the two disagree — duplicate insert, unknown remove, size
/// drift between insert and remove, or an aggregate (count, total bytes)
/// that no longer matches the shadow.
class StoreAudit {
 public:
  explicit StoreAudit(std::string what) : what_(std::move(what)) {}

  void add(const std::string& id, std::int64_t bytes, const char* file,
           int line);
  void remove(const std::string& id, std::int64_t bytes, const char* file,
              int line);
  /// Asserts the audited store's own aggregates match the shadow.
  void expect(std::size_t count, std::int64_t total_bytes, const char* file,
              int line) const;
  void reset();

 private:
  std::string what_;
  std::unordered_map<std::string, std::int64_t> sizes_;
  std::int64_t total_ = 0;
};

}  // namespace gc::check

#ifdef GC_CHECK_INVARIANTS
#define GC_INVARIANT(cond, msg)                                       \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::gc::check::fail(__FILE__, __LINE__,                           \
                        std::string("invariant (" #cond "): ") +      \
                            (msg));                                   \
    }                                                                 \
  } while (0)
#else
#define GC_INVARIANT(cond, msg) \
  do {                          \
  } while (0)
#endif
