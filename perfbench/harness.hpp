// Shared plumbing of the repository benchmark: options, the result record
// every workload fills, order statistics, host timing and the per-run work
// directory.
//
// A workload run is a sequence of *rounds*. Each round builds a fresh world
// (the set-up phase, timed into setup_s), runs it (the timed phase, which
// calls_per_host_s divides into), then checks its outputs outside any
// timer. Virtual-time results of a round depend on the seed only, so every
// round of one run must agree bit for bit; the gates enforce that.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// How far one round goes: set-up only (extra set-up samples), or set-up
/// plus the timed phase with the tracing seams off or on.
enum class RoundMode { kSetupOnly, kPlain, kTraced };

/// Every run reports setup_s from at least kSetupSamples set-ups. Each
/// measured round is followed by kSetupsPerRound set-up-only rounds, so the
/// samples spread over the whole window (the host's speed drifts within a
/// run); runs that still have fewer are topped up at the end.
inline constexpr std::size_t kSetupSamples = 51;
inline constexpr int kSetupsPerRound = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;   ///< measuring window of one run (required)
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  std::string work_dir;   ///< fresh, private to this run, removed at exit
  std::string git_rev = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What one run reports. `metrics` go into the final JSON line; `extras`
/// are printed by name and unit above it (workload-specific quantities that
/// the JSON contract has no slot for).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extras;
  std::vector<Gate> gates;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void extra(const std::string& name, double value, const std::string& unit) {
    extras.push_back({name, value, unit});
  }
  void gate(const std::string& name, bool ok, const std::string& detail) {
    gates.push_back({name, ok, detail});
  }
  [[nodiscard]] bool correct() const;
};

/// Prints provenance, every metric and gate line, then the one-line JSON
/// object the benchmark contract asks for. Returns the process exit code.
int emit(const Options& options, const Result& result);

// ---- order statistics ----------------------------------------------------

double median(std::vector<double> values);
/// Linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> values, double q);
/// Nearest-rank-below quantile of sorted values: sorted[floor(q*(n-1))],
/// the convention of loadgen::run_serving's p50/p99.
double rank_quantile(const std::vector<double>& sorted, double q);

/// The highest of the usual reporting percentiles that leaves at least ten
/// samples beyond it; 1.0 (the maximum) when n < 20.
double tail_quantile(std::size_t n);

// ---- hashing -------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);
/// The offset basis loadgen/serving.cpp starts its digests from (the serving
/// gate compares against them bit for bit).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
std::string hex64(std::uint64_t v);

// ---- process and filesystem ----------------------------------------------

/// Peak resident set of this process, MiB.
double peak_rss_mib();
/// Filesystem type of `path` from statfs ("tmpfs", "ext4", "overlay", ...).
std::string filesystem_type(const std::string& path);
/// Pool threads the benchmark runs with: min(4, nproc).
std::size_t worker_threads();

/// Counts of what a directory tree holds.
struct TreeCensus {
  std::uint64_t dirs = 0;
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
};
TreeCensus census_tree(const std::string& root);

/// A directory created on construction (the caller makes sure it did not
/// exist) and removed with everything under it on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
