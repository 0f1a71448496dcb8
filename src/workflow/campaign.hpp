// The Section 5 experiment, as a reusable harness.
//
// "The client requests a 128^3 particles 100 Mpc.h^-1 simulation (first
// part). When he receives the results, he requests simultaneously 100
// sub-simulations (second part). As each server cannot compute more than
// one simulation at the same time, we won't be able to have more than 11
// parallel computations at the same time." (Section 5.1.)
//
// run_grid5000_campaign deploys DIET on the modeled Grid'5000 (DES),
// replays that client behaviour, and returns everything Figures 4 and 5
// plus the in-text results are drawn from.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "diet/client.hpp"
#include "diet/deployment.hpp"
#include "fault/plan.hpp"
#include "platform/grid5000.hpp"
#include "sched/policy.hpp"
#include "workflow/services.hpp"

namespace gc::workflow {

struct CampaignConfig {
  int resolution = 128;      ///< particles per dimension
  int size_mpc = 100;        ///< initial conditions size (Mpc/h)
  int nb_box = 2;            ///< zoom levels per sub-simulation
  int sub_simulations = 100; ///< second-part request count
  std::string policy = "default";
  /// Optional user-written plug-in scheduler (paper ref [2]); overrides
  /// `policy` at the MA when set.
  std::function<std::unique_ptr<sched::Policy>()> policy_factory;
  int machines_per_sed = 16;
  std::uint64_t seed = 7;
  /// DES same-timestamp tie-break seed (0 = insertion order). Any value
  /// must produce bit-identical campaign results; the schedule fuzzer
  /// sweeps this to prove ordering assumptions hold.
  std::uint64_t tie_break_seed = 0;
  ServiceOptions services;        ///< mode defaults to kSim
  diet::AgentTuning agent_tuning; ///< calibrated defaults
  diet::SedTuning sed_tuning;

  /// Scripted process faults on the deployment's flat SED/LA indexes,
  /// armed ahead of any fault plan's schedule (isolate/heal need an active
  /// plan's injector). Combine a SED crash with a call deadline and
  /// retries to exercise the middleware's failure handling (bench A4).
  std::vector<fault::ProcessFault> process_faults;
  /// Per-zoom2-call deadline in virtual seconds (0 = unbounded).
  double call_deadline_s = 0.0;
  /// Resubmissions allowed per failed zoom2 call.
  int max_retries = 0;

  /// Modeled size of the input file every request ships (the namelist is
  /// ~4 KiB; bench B1 swaps in the pre-generated IC archive).
  std::int64_t shipped_input_bytes = 4096;
  /// Persistence mode of that input (kPersistent enables the DTM path).
  diet::Persistence input_mode = diet::Persistence::kVolatile;
  /// Write-replication factor for persistent data (1 = holder only). The
  /// holder's parent LA fans fresh registrations out to this many SEDs,
  /// so a crash still leaves a live replica to pull from.
  int replicas = 1;

  /// Chaos experiment: a fault::parse_plan spelling ("" or "none" = off).
  /// When active, the plan's tolerance knobs (client retries, heartbeats)
  /// override the tunings above, the net layer tampers with messages, and
  /// the plan's process-fault schedule is materialized over the
  /// deployment after `process_faults`.
  std::string fault_plan;
  /// Seed for every fault decision (message tampering, victim selection,
  /// fault times). Same plan + same seed = bit-identical chaos run.
  std::uint64_t fault_seed = 1;

  /// Contention-aware network & disk model: bulk transfers become flows
  /// that fair-share link capacity (net::FlowModel) instead of being
  /// priced instantly on an idle network. Off by default — the paper's
  /// closed-form costs — and bit-identical to the pre-flow-model runs.
  bool contention = false;
  /// MPWide-style WAN engine knobs, applied to every SED's bulk dtm
  /// pushes when set: parallel stripes per transfer (>1 enables striping),
  /// relay through the requester's LA, modeled compression.
  int wan_streams = 1;
  bool wan_relay = false;
  double wan_compression = 0.0;
  double wan_compress_bps = 0.0;
  /// Scales every RENATER WAN link's bandwidth (1.0 = the paper's 2.5
  /// Gb/s); < 1 narrows the backbone to provoke congestion.
  double wan_bandwidth_scale = 1.0;
  /// Per-stream TCP ceiling on WAN links in bytes/s (0 = none): the lossy
  /// long-fat-network effect striped transfers exist to beat.
  double wan_per_stream_bps = 0.0;

  /// Number of federated MA hierarchies. 1 (the default) is the paper's
  /// single hierarchy, a federation of one shard; N > 1 splits the
  /// deployment's LAs round-robin into N shards whose MAs peer in a full
  /// mesh (with federate_always, since every shard offers the same
  /// services). The client still talks to MA1; the science digest must not
  /// depend on N.
  int federation_mas = 1;
};

struct SedSummary {
  std::string name;
  std::string cluster;
  std::string site;
  double machine_power = 1.0;   ///< per-machine relative power
  std::uint64_t requests = 0;   ///< zoom2 requests assigned (Figure 4 left)
  double busy_seconds = 0.0;    ///< total execution time (Figure 4 right)
  std::vector<diet::Sed::JobRecord> jobs;  ///< Gantt rows
};

struct CampaignResult {
  diet::Client::CallRecord zoom1;
  std::vector<diet::Client::CallRecord> zoom2;  ///< submission order
  std::vector<SedSummary> seds;

  double part1_duration = 0.0;      ///< zoom1 submit -> complete
  double part2_mean_exec = 0.0;     ///< mean zoom2 execution time
  double makespan = 0.0;            ///< first submit -> last completion
  double sequential_estimate = 0.0; ///< sum of all execution times
  double finding_mean = 0.0;        ///< mean finding time (Figure 5)
  double overhead_total = 0.0;      ///< finding + init, summed over calls
  std::uint64_t failed_calls = 0;   ///< calls that never succeeded
  std::uint64_t resubmissions = 0;  ///< retries issued after failures
  std::int64_t network_bytes = 0;   ///< total bytes charged to the network
  std::uint64_t network_messages = 0;
  /// Bytes that crossed a RENATER site boundary — the traffic persistence
  /// and locality-aware scheduling are meant to save (BENCH_datalocality).
  std::int64_t wan_bytes = 0;

  /// Order-independent FNV-1a hash of the science every successful zoom2
  /// call produced (centre, zoom depth, return code). A chaos run is
  /// scientifically correct iff this matches the fault-free run's digest.
  std::uint64_t science_digest = 0;

  // Chaos-run accounting. Message counts are zero without a fault plan;
  // process-fault counts cover `process_faults` and the plan's schedule.
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t sed_crashes = 0;
  std::uint64_t sed_restarts = 0;
  std::uint64_t la_deaths = 0;
  std::uint64_t sed_isolations = 0;
  std::uint64_t heartbeat_evictions = 0;  ///< watchdog firings, all agents

  // Federation accounting (zero when federation_mas == 1).
  std::uint64_t federation_forwards = 0;  ///< collects sent MA -> peer MA
  std::uint64_t federation_replies = 0;   ///< peer candidate lists returned

  // Flow-model accounting (zero when contention is off).
  std::uint64_t flows_completed = 0;    ///< bulk transfers run as flows
  std::uint64_t peak_active_flows = 0;  ///< max simultaneous flows
};

/// Runs the campaign on the simulated Grid'5000 deployment of Section 5.1.
CampaignResult run_grid5000_campaign(const CampaignConfig& config);

/// Builds a diet::DeploymentSpec from a platform::G5kDeployment (shared by
/// the campaign and the benches that vary the hierarchy).
diet::DeploymentSpec deployment_spec_from_g5k(
    const platform::G5kDeployment& g5k, const CampaignConfig& config);

}  // namespace gc::workflow
