// What every round of every workload records, and the report built from a
// run's rounds: the shared gates, the end-to-end metrics and the per-layer
// metrics every workload reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics.hpp"
#include "tracing.hpp"

namespace perfbench {

struct RoundCore {
  double setup_s = 0.0;  ///< set-up phase, host seconds
  double run_s = 0.0;    ///< timed phase, host seconds
  double platform_s = 0.0;
  double deploy_s = 0.0;
  double register_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t science_digest = 0;
  std::uint64_t state_hash = 0;
  /// Per ok call, virtual seconds, each sorted: submit -> complete,
  /// submit -> MA reply, reply -> start, start -> result.
  std::vector<double> latency, finding, queue, exec_return;
  double finding_mean = 0.0;
  double makespan = 0.0;
  std::uint64_t events = 0;  ///< DES events of the timed phase
  std::size_t queue_depth_max = 0;
  // traced rounds only
  StepProfile steps;
  CensusHook census;
  RankStats rank;
};

/// One run's rounds; `setup_s` also holds the set-up-only rounds.
struct RunRounds {
  std::vector<const RoundCore*> plain;
  std::vector<const RoundCore*> traced;
  std::vector<double> setup_s;
};

/// Passes when every round reproduced the first one's state hash and
/// science digest.
Gate rounds_agree_gate(const std::string& name,
                       const std::vector<const RoundCore*>& rounds);

/// Counts every round's calls into `result` and gates on zero failures and
/// on the plain and traced rounds all agreeing (rounds_agree_gate).
void add_round_gates(Result& result, const RunRounds& rounds, bool trace);

/// The end-to-end metrics (untraced runs) and the extras behind them.
void add_run_metrics(Result& result, const RunRounds& rounds);

/// The per-layer values every workload measures alike, from the traced
/// rounds.
Layers shared_layers(Result& result, const RunRounds& rounds);

}  // namespace perfbench
