// Server Daemon (SED).
//
// "A SED encapsulates a computational server. [...] The information stored
// by a SED is a list of the data available on its server, all information
// concerning its load [...] and the list of problems that it can solve."
// (Section 2.1.)
//
// Behaviourally faithful to the deployment of Section 5: one SED fronts a
// set of cluster machines, answers estimation requests from its Local
// Agent, queues incoming calls FIFO, and runs at most one simulation at a
// time ("each server cannot compute more than one simulation at the same
// time"). Job timestamps are logged for the Gantt chart of Figure 4.
//
// Data management: persistent arguments live in a dtm::DataManager and
// are registered in the hierarchy's replica catalog. A call referencing an
// id this SED does not hold no longer fails straight back to the client —
// the job blocks while the SED locates a surviving replica through its
// parent and pulls it peer-to-peer from the nearest holder; only when the
// hierarchy knows no replica (or the fetch times out) does the SED answer
// kMissingDataStatus and let the client resend the full data.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/invariant.hpp"
#include "common/rng.hpp"
#include "diet/protocol.hpp"
#include "diet/service.hpp"
#include "dtm/datamgr.hpp"
#include "dtm/messages.hpp"
#include "dtm/wan.hpp"
#include "net/env.hpp"
#include "obs/trace.hpp"

namespace gc::diet {

struct SedTuning {
  /// Time to fill the estimation vector on a collect request (probing
  /// load averages, free memory, queue state). Not exclusive: the SED
  /// answers estimations from a dedicated dispatch thread, so concurrent
  /// requests overlap (this is why the paper's finding time stays constant
  /// under 100 simultaneous requests).
  double estimation_delay = 7.5e-3;
  /// Service initiation time: forking the solver, setting up the MPI
  /// environment (the paper measured 20.8 ms on the first 12 executions).
  double init_delay = 20.8e-3;
  /// Log-normal coefficient of variation applied to the two delays above.
  double delay_noise_cv = 0.06;
  /// Concurrent jobs this SED may run (the paper's deployment: 1).
  int concurrency = 1;
  /// Byte budget of the persistent data store (DIET's DTM); 0 = unbounded.
  std::int64_t data_store_max_bytes = 0;
  /// Desired total replica count for data stored here: >1 asks the parent
  /// LA to replicate fresh values onto sibling SEDs (write-replication).
  int replication_factor = 1;
  /// How long a blocked call waits for a peer-to-peer fetch before giving
  /// up and answering kMissingDataStatus (client full-resend fallback).
  double data_fetch_timeout_s = 10.0;
  /// Period of liveness heartbeats to the parent agent; 0 disables them
  /// (the default, so fault-free runs send no extra messages).
  double heartbeat_period = 0.0;
  /// MPWide-style WAN transfer engine for bulk dtm pushes (striping).
  /// Defaults are the classic single-stream push.
  dtm::WanTuning wan;
  /// Scratch directory for real service executions.
  std::string work_dir = "/tmp";
};

class Sed final : public net::Actor {
 public:
  struct JobRecord {
    std::uint64_t call_id;
    std::string service;
    SimTime arrived;
    SimTime started;   ///< solve began (after init delay)
    SimTime finished;  ///< result shipped
    int solve_status;
  };

  Sed(std::uint64_t uid, std::string name, ServiceTable& services,
      double host_power, int machines, SedTuning tuning, std::uint64_t seed);

  /// Announces this SED and its service table to a parent agent
  /// (diet_SeD's registration step) and starts periodic heartbeats when
  /// configured.
  void register_at(net::Endpoint parent);

  /// Marks this SED dead: it stops answering estimation requests, drops
  /// queued and running jobs, and sends nothing further. Used by the
  /// fault-injection benches; combined with agent collect timeouts and
  /// client call deadlines this exercises the middleware's failure paths.
  void fail();
  [[nodiscard]] bool failed() const { return failed_; }

  /// Brings a failed SED back: re-attaches to the Env under a fresh
  /// endpoint, wipes the run-time state a crash would lose (queue, data
  /// store) and re-registers at the parent. The call-id dedup journal
  /// survives (modeled as persisted in work_dir) — that is what keeps
  /// retried calls at-most-once-executed across a crash-restart.
  void restart();

  void on_message(const net::Envelope& envelope) override;

  [[nodiscard]] std::uint64_t uid() const { return uid_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double host_power() const { return host_power_; }
  [[nodiscard]] int machines() const { return machines_; }
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() + static_cast<std::size_t>(running_);
  }
  [[nodiscard]] std::uint64_t jobs_completed() const { return completed_; }
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }
  [[nodiscard]] const std::vector<JobRecord>& job_log() const {
    return job_log_;
  }
  [[nodiscard]] const ServiceTable& services() const { return services_; }
  [[nodiscard]] const dtm::DataManager& data_manager() const {
    return data_manager_;
  }
  /// Calls currently blocked on peer-to-peer data fetches.
  [[nodiscard]] std::size_t blocked_calls() const { return blocked_.size(); }

  struct PendingJob {
    std::uint64_t call_id = 0;
    net::Endpoint client = net::kNullEndpoint;
    Profile profile;
    SimTime arrived = 0.0;
    double comp_estimate_s = 0.0;  ///< plugin estimate at enqueue time (or 0)
    obs::TraceId trace_id = 0;     ///< from the kCallData envelope
    obs::SpanId queue_span = 0;    ///< arrival -> solve start
    obs::SpanId exec_span = 0;     ///< solve start -> result shipped
    std::uint64_t epoch = 0;       ///< lifecycle epoch at enqueue time
  };

  /// Internal: invoked by the running job's ServiceContext on finish().
  void complete_job(PendingJob& job, SimTime started, int solve_status);

 private:
  /// A call whose referenced data is being fetched from a peer; admitted
  /// to the queue once every missing id has arrived.
  struct BlockedCall {
    PendingJob job;
    std::set<std::string> missing;
  };
  /// One in-flight fetch of one data id, shared by every call waiting on
  /// it (waiters in arrival order — deterministic under the DES).
  struct FetchState {
    std::vector<std::uint64_t> waiters;
    net::TimerId timer = 0;
    bool pull_sent = false;
  };

  /// Reassembly of one in-flight striped transfer, keyed by transfer id.
  struct StripeAssembly {
    std::uint32_t received = 0;
    std::uint32_t count = 0;
    net::Bytes value;  ///< from stripe 0
    std::int64_t total_bytes = 0;
  };

  void handle_collect(const net::Envelope& envelope);
  void handle_call(const net::Envelope& envelope);
  /// Answers a call with an error status instead of running it, and
  /// un-journals its id so the client's corrective resend is accepted.
  void reject_call(std::uint64_t call_id, net::Endpoint client,
                   obs::TraceId trace_id, std::int32_t status);
  void handle_data_location(const net::Envelope& envelope);
  void handle_data_pull(const net::Envelope& envelope);
  void handle_data_push(const net::Envelope& envelope);
  void handle_data_stripe(const net::Envelope& envelope);
  void handle_data_replicate(const net::Envelope& envelope);
  /// Completion of one data fetch however it arrived (single push or
  /// reassembled stripes): store the value, register the replica, and
  /// unblock every call waiting on `data_id`.
  void finish_fetch(const std::string& data_id, bool found,
                    const net::Bytes& value, std::int64_t charged_bytes,
                    obs::TraceId trace);
  /// Ships `data_id` to `requester`: one classic push, or — when the WAN
  /// engine says so — striped parallel out-of-band streams.
  void push_data(const dtm::DataPullMsg& msg, net::Endpoint requester,
                 obs::TraceId trace);
  /// Runs the admission tail (estimator, spans, queue) for a job whose
  /// data is fully materialized.
  void admit_job(PendingJob job, const ServiceEntry* entry);
  /// Stores a persistent value and, on fresh insert, registers it in the
  /// hierarchy catalog asking for `replicas` total copies.
  void store_value(const ArgValue& arg, int replicas, obs::TraceId trace);
  /// Starts (or joins) the peer fetch of `id` on behalf of `call_id`.
  void begin_fetch(const std::string& id, std::uint64_t call_id,
                   obs::TraceId trace);
  /// Gives up on `id`: every waiting call answers kMissingDataStatus so
  /// the client falls back to a full-data resend.
  void fail_fetch(const std::string& id);
  void start_next();
  void arm_heartbeat();
  /// Fills self_.est for one collect of `entry`'s service.
  void refresh_estimation(const ServiceEntry& entry,
                          const ProfileDesc& request);
  [[nodiscard]] double noisy(double base);

  std::uint64_t uid_;
  std::string name_;
  ServiceTable& services_;
  double host_power_;
  int machines_;
  SedTuning tuning_;
  Rng rng_;
  /// This SED as its collect replies describe it: uid and name from
  /// construction, endpoint from registration, est refreshed per collect.
  sched::Candidate self_;

  net::Endpoint parent_ = net::kNullEndpoint;
  std::deque<PendingJob> queue_;
  int running_ = 0;
  double queued_work_s_ = 0.0;
  std::uint64_t completed_ = 0;
  double busy_seconds_ = 0.0;
  std::vector<JobRecord> job_log_;
  std::vector<std::unique_ptr<ServiceContext>> live_contexts_;
  dtm::DataManager data_manager_;
  /// In-flight peer fetches by data id (ordered: timer/failure handling
  /// iterates deterministically).
  std::map<std::string, FetchState> fetches_;
  /// Calls parked while their referenced data is in flight, by call id.
  std::map<std::uint64_t, BlockedCall> blocked_;
  /// Striped transfers being reassembled, by transfer id (ordered for
  /// deterministic teardown).
  std::map<std::uint64_t, StripeAssembly> stripes_;
  std::uint64_t stripe_counter_ = 0;  ///< transfer-id minting (sender side)
  /// Call ids live on this SED (queued or running); a client retry only
  /// reuses an id after its result message went out (GC_CHECK builds).
  check::UniqueIds live_calls_{"sed live call ids"};
  /// Every call id ever handed to a solve function, add-only — a second
  /// add of the same id is the at-most-once-execution invariant tripping
  /// (GC_CHECK builds). Deliberately NOT reset by fail()/restart().
  check::UniqueIds executed_calls_{"sed executed call ids (at-most-once)"};
  /// Call-id dedup journal: ids accepted onto the queue. A network
  /// duplicate of kCallData hits this set and is ignored; error replies
  /// un-journal their id so the client's corrective resend is accepted.
  std::unordered_set<std::uint64_t> seen_calls_;
  /// Bumped by fail(): pending timers and running jobs from an
  /// older epoch discover they are stale and do nothing.
  std::uint64_t epoch_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  bool failed_ = false;
};

}  // namespace gc::diet
