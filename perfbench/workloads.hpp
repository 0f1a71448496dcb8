// The benchmark's workloads and the seed -> input generators behind them.
// Each generator is a pure function of its seed; the program only ever sees
// the generated inputs.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"
#include "loadgen/serving.hpp"

namespace perfbench {

// ---- serving_broadcast ---------------------------------------------------

/// One MA over the default 1024-SED fat-tree, the paper's broadcast
/// discovery, journal on, contention off, the default request mix offered
/// as an open-loop Poisson burst far above the MA's capacity.
gc::loadgen::ServingConfig serving_config(std::uint64_t seed);

Result run_serving_broadcast(const Options& options);

// ---- campaign_real (and the paper campaign it checks) -----------------------

/// Inputs of one Section-5 campaign run by the benchmark's own driver, on
/// the paper's deployment (seed 7).
struct CampaignSpec {
  bool real = false;           ///< ServiceMode::kReal numerics vs kSim
  int sub_simulations = 100;   ///< zoom2 calls issued after zoom1
  bool contention = false;     ///< flow model on
  std::uint64_t tie_seed = 0;  ///< DES same-timestamp tie-break seed
};

/// The paper's client with real numerics at 16^3 per level and 11 zoom2
/// calls. Like the paper campaign, the workload seed
/// only scrambles same-timestamp event order, which must not change a bit
/// of the outcome.
CampaignSpec campaign_real_spec(std::uint64_t seed);
/// The exact paper campaign (100 zoom2 calls, flow model on); the workload
/// seed only scrambles same-timestamp event order, which must not change a
/// single bit of the outcome.
CampaignSpec campaign_paper_spec(std::uint64_t seed);

/// Runs campaign_real; every run also checks the paper campaign once
/// outside its measuring window.
Result run_campaign_real(const Options& options);

// ---- gates shared with the self-test -------------------------------------

/// What the serving gate compares with loadgen::run_serving's report.
struct ServingOutcome {
  std::uint64_t science_digest = 0;
  std::uint64_t state_hash = 0;
  std::uint64_t calls = 0;
};
Gate serving_gate(const ServingOutcome& got, const ServingOutcome& reference);

/// What a paper campaign is checked on; the pinned one is 16h 15min 24s,
/// 49.5 ms mean finding time and 202 bulk flows.
struct PaperOutcome {
  std::uint64_t science_digest = 0;
  double makespan_s = 0.0;
  double finding_mean_s = 0.0;
  std::uint64_t flows = 0;
};
/// Passes when `got` equals `want` bit for bit.
Gate outcome_gate(const std::string& name, const PaperOutcome& got,
                  const PaperOutcome& want);
PaperOutcome pinned_paper_outcome();
/// outcome_gate against the pinned outcome.
Gate paper_gate(const PaperOutcome& got);

/// campaign_real's pinned hash over every catalog the campaign tarred.
std::uint64_t pinned_real_catalog_hash();
Gate catalog_gate(std::uint64_t got);

}  // namespace perfbench
