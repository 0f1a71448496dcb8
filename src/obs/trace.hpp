// Spans & events with causal links, exported as Chrome trace-event JSON.
//
// The tracer is process-global and clock-agnostic: every record call takes
// an explicit timestamp in seconds, supplied by the call site from its
// owning `Env` (`env().now()`), which is virtual time; env-less pipelines
// such as the PM run pass `obs::wall_seconds()`.
//
// Causality is carried two ways:
//   - span/parent ids link child spans to enclosing ones (SED "exec" under
//     "queue", client "finding" under "call");
//   - a trace id rides on `net::Envelope` across the middleware hop chain
//     (client → MA → LA → SED → response), so one DIET request is a single
//     trace even though its spans live on different actors' tracks.
//
// Overhead when disabled: record calls are guarded at the call site with
// `if (obs::tracing())` — a single relaxed atomic load, no allocation, no
// locking. Span ids obtained while disabled are 0 and `end_span(0, ..)`
// is a no-op, so begin/end pairs straddling an enable/disable edge are
// safe.
//
// Export: `chrome_trace_json()` emits the Trace Event Format understood by
// Perfetto / chrome://tracing — ph "X" complete events (us timestamps and
// durations), ph "i" instants, ph "M" thread_name metadata naming each
// track. Events sort by (timestamp, record order) and tracks get integer
// tids in first-use order, so output is byte-deterministic under SimEnv.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace gc::obs {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

struct TraceEvent {
  enum class Phase { kSpan, kInstant };

  Phase phase = Phase::kInstant;
  std::string name;
  std::string track;   ///< logical timeline, e.g. "agent:MA" or "sed:n3"
  double ts = 0.0;     ///< seconds, from the owning Env's clock
  double dur = 0.0;    ///< seconds; spans only
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_span = 0;
  std::uint64_t seq = 0;  ///< record order, tie-breaker for equal ts
  bool open = false;      ///< span begun but not yet ended
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  static Tracer& instance();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span at `ts`; returns 0 (and records nothing) when disabled.
  SpanId begin_span(double ts, const std::string& name,
                    const std::string& track, TraceId trace_id = 0,
                    SpanId parent = 0);
  /// Attaches a key/value to an open span; no-op for span 0 / unknown ids.
  void span_arg(SpanId span, const std::string& key, const std::string& value);
  /// Closes the span at `ts`; no-op for span 0 / unknown ids.
  void end_span(SpanId span, double ts);

  /// Records a fully-formed span in one call (known start + duration).
  void complete_span(double ts, double dur, const std::string& name,
                     const std::string& track, TraceId trace_id = 0,
                     SpanId parent = 0);

  /// Records a point event.
  void instant(double ts, const std::string& name, const std::string& track,
               TraceId trace_id = 0,
               std::vector<std::pair<std::string, std::string>> args = {});

  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t event_count() const;

  [[nodiscard]] std::string chrome_trace_json() const;
  Status write_chrome_trace(const std::string& path) const;

  /// Drops all recorded events (open spans included) and resets ids.
  void clear();

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;  ///< guarded
  SpanId next_span_ = 1;            ///< guarded
  std::uint64_t next_seq_ = 0;      ///< guarded
};

/// One-atomic fast path for instrumentation sites.
inline bool tracing() { return Tracer::instance().enabled(); }

/// Wall-clock seconds since the first call; for instrumenting code that
/// runs outside any Env (the ramses step loop in real pipelines).
double wall_seconds();

}  // namespace gc::obs
