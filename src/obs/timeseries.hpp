// Virtual-time (and wall-time) time-series sampler over the metrics
// registry.
//
// The metrics registry alone only answers "what were the totals at the end
// of the run?". This sampler turns the registry into plottable curves: a
// recurring tick — a DES event under SimEnv, a dedicated wall-clock thread
// in env-less pipelines — snapshots every instrument into an
// append-only in-memory series, exported as JSONL (one sample per line).
// Queue depth, DES events executed, dtm bytes moved, and per-SED busy time
// become time series instead of final numbers.
//
// Process-global singleton like the tracer and the registry; off by
// default, `timeseries_on()` is one relaxed atomic load. Who drives the
// ticks depends on the binary:
//
//   - SimEnv campaigns arm a self-rearming engine event every
//     `interval()` virtual seconds (workflow/campaign.cpp), so samples
//     land at deterministic virtual times and the exported series is
//     byte-identical run to run — including under --tie-seed scrambles.
//   - env-less binaries (pm_simulation) drive `start_wall_sampler()` /
//     `stop_wall_sampler()`: a thread that samples at
//     `obs::wall_seconds()` timestamps every `interval()` wall seconds,
//     plus once on start and once on stop.
//
// Export format — JSON Lines, one object per sample:
//
//   {"t": 62.0, "counters": {...}, "gauges": {...},
//    "histograms": {"name{...}": {"count": N, "sum": S}}}
//
// consumed by tools/gcprof and trivially by any plotting script.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>  // gclint: allow(thread) wall-clock sampler backend, see below
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"

namespace gc::obs {

class TimeSeries {
 public:
  static TimeSeries& instance();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Sampling period in seconds (virtual under the DES, wall otherwise);
  /// default 60. Must be > 0.
  void set_interval(double seconds);
  [[nodiscard]] double interval() const {
    return interval_s_.load(std::memory_order_relaxed);
  }

  /// Appends one sample: the full metrics snapshot stamped `t`. No-op when
  /// disabled, so tick drivers can call unconditionally.
  void sample(double t);

  [[nodiscard]] std::size_t sample_count() const;

  /// One JSON object per line, samples in record order. Deterministic for
  /// a deterministic run (snapshot keys are in registry order).
  [[nodiscard]] std::string to_jsonl() const;
  Status write_jsonl(const std::string& path) const;

  /// Drops all recorded samples.
  void clear();

  /// Starts the wall-clock sampling thread (no-op when disabled or already
  /// running): one sample immediately, one every `interval()` wall
  /// seconds, one at stop. For env-less pipelines; DES campaigns sample
  /// from a virtual-time event instead.
  void start_wall_sampler();
  /// Stops the thread (taking a final sample) and joins it. Safe to call
  /// when no sampler is running.
  void stop_wall_sampler();

 private:
  TimeSeries() = default;

  struct Sample {
    double t = 0.0;
    MetricsSnapshot snap;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<double> interval_s_{60.0};
  mutable std::mutex mutex_;
  std::vector<Sample> samples_;  ///< guarded

  // Wall-sampler machinery. The raw thread is deliberate: this is a
  // sampling service thread, not data-parallel work for the shared pool.
  std::mutex thread_mutex_;
  std::condition_variable thread_cv_;  ///< signalled to stop early
  bool stop_requested_ = false;        ///< guarded by thread_mutex_
  std::thread worker_;  // gclint: allow(thread) sampling service thread, not pool work
};

/// One-atomic fast path for tick-driver call sites.
inline bool timeseries_on() { return TimeSeries::instance().enabled(); }

}  // namespace gc::obs
