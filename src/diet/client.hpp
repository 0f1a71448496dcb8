// DIET client.
//
// "The goal of the client is to connect to a Master Agent in order to
// dispose of a SED which will be able to solve the problem. Then the
// client sends input data to the chosen SED and, after the end of
// computation, retrieve output data from the SED." (Section 4.3.)
//
// The client records, per call, the timestamps behind Figure 5:
//   submitted -> found      : the *finding time* (scheduling round-trip)
//   found -> started        : the *latency* (data transfer + queue wait +
//                             service initiation)
//   started -> completed    : the service execution + result return.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "diet/protocol.hpp"
#include "net/env.hpp"
#include "obs/trace.hpp"

namespace gc::diet {

class Client final : public net::Actor {
 public:
  struct CallRecord {
    std::uint64_t id = 0;
    std::string service;
    SimTime submitted = -1.0;
    SimTime found = -1.0;      ///< kRequestReply received
    SimTime started = -1.0;    ///< kCallStarted received
    SimTime completed = -1.0;  ///< kCallResult received
    std::uint64_t sed_uid = 0;
    std::string sed_name;
    int solve_status = -1;
    bool ok = false;

    [[nodiscard]] double finding_time() const { return found - submitted; }
    /// The paper's latency: data transfer + queue wait + initiation.
    [[nodiscard]] double latency() const { return started - found; }
    [[nodiscard]] double total_time() const { return completed - submitted; }
  };

  using DoneFn = std::function<void(const gc::Status&, Profile&)>;

  struct Tuning {
    /// Client CPU per call submission (profile marshalling, GridRPC
    /// bookkeeping). Submissions serialize on the client thread, so a
    /// burst of 100 diet_call_async spreads out — as in the paper's
    /// client loop.
    double submit_marshalling = 1.0e-3;
    /// Total tries per call; 1 (the default) is the pre-existing
    /// single-shot behavior. Each extra attempt re-runs the whole
    /// finding + computing phase, possibly on a different SED.
    int max_attempts = 1;
    /// Give up on an attempt this long after its submit and retry (or
    /// fail); 0 waits forever. This is what turns a SED that dies with
    /// our job into a retry instead of a hung call.
    double attempt_timeout_s = 0.0;
    /// Retry i (1-based) waits backoff_base_s * backoff_mult^(i-1)
    /// before resubmitting, giving the hierarchy time to notice the
    /// failure (heartbeat eviction) and the WAN time to recover.
    double backoff_base_s = 0.0;
    double backoff_mult = 2.0;
  };

  explicit Client(std::string name) : name_(std::move(name)) {}
  Client(std::string name, const Tuning& tuning)
      : name_(std::move(name)), tuning_(tuning) {}
  /// `id_base` partitions the call-id space: this client's ids are
  /// base+1, base+2, ... Call ids double as trace ids and as the SED-side
  /// at-most-once dedup keys, so clients sharing a hierarchy MUST use
  /// disjoint bases (the load generator hands client k base k<<32).
  /// Must leave bit 63 clear — it marks retry wire ids.
  Client(std::string name, const Tuning& tuning, std::uint64_t id_base)
      : name_(std::move(name)),
        tuning_(tuning),
        id_base_(id_base),
        next_id_(id_base + 1),
        next_submission_(id_base + 1) {}

  /// Points this client at its Master Agent (diet_initialize resolves the
  /// MA name from the configuration file to this endpoint).
  void connect(net::Endpoint master_agent) { ma_ = master_agent; }

  /// GridRPC-style asynchronous call (diet_call_async). May be invoked
  /// from a handler or from code outside the engine; `done` runs in a
  /// later event with the profile containing merged OUT/INOUT values.
  /// `deadline_s` > 0 bounds the whole call: if no result arrived within
  /// that many seconds of submission, the call completes with
  /// kUnavailable (a late result from the SED is then ignored). This is
  /// how a client survives a SED dying with its job (see Sed::fail).
  std::uint64_t call_async(Profile profile, DoneFn done,
                           double deadline_s = 0.0);

  void on_message(const net::Envelope& envelope) override;

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Completed + in-flight call records, in submission order. Only read
  /// this when the Env is idle (or from the dispatch context).
  [[nodiscard]] const std::vector<CallRecord>& records() const {
    return records_;
  }

 private:
  struct PendingCall {
    Profile profile;
    DoneFn done;
    std::size_t record_index = 0;
    net::TimerId deadline_timer = 0;
    std::uint64_t sed_uid = 0;
    bool resent_full = false;  ///< one resend per attempt after a data miss
    obs::SpanId call_span = 0;  ///< whole call, submit -> complete
    obs::SpanId find_span = 0;  ///< scheduling round-trip, submit -> reply
    /// The current attempt's on-the-wire request id. Attempt 1 uses the
    /// call id itself; each retry draws a fresh one, so a SED that
    /// executes both the lost first attempt and the retry executes two
    /// distinct wire ids — at-most-once per id by construction — and
    /// replies to an abandoned attempt miss the wire_to_call_ map and
    /// fall on the floor.
    std::uint64_t wire_id = 0;
    int attempt = 1;
    bool reply_seen = false;  ///< guards against a duplicated kRequestReply
    net::TimerId attempt_timer = 0;
    /// Data ids the MA's reply said resolve to a live replica somewhere
    /// in the hierarchy: these ship as references even to a SED that does
    /// not hold them (it pulls peer-to-peer). Refilled on every reply.
    std::set<std::string> available;
  };

  void submit(std::uint64_t id, Profile profile, DoneFn done,
              double deadline_s);
  /// Hands queued submissions to the marshalling serializer in call-id
  /// order (= call_async program order), however the hand-off events were
  /// interleaved by the engine.
  void drain_submissions();
  /// Ships the IN/INOUT data to the chosen SED. Persistent arguments the
  /// SED is known to hold travel as id-only references unless
  /// `force_full` (the missing-data retry).
  void send_call_data(std::uint64_t id, net::Endpoint sed,
                      std::uint64_t sed_uid, bool force_full);
  void handle_reply(const net::Envelope& envelope);
  void handle_started(const net::Envelope& envelope);
  void handle_result(const net::Envelope& envelope);
  void complete(std::uint64_t id, const gc::Status& status);
  /// Re-runs the whole finding + computing phase under a fresh wire id.
  void start_attempt(std::uint64_t call_id);
  /// Schedules the next attempt after backoff, or completes the call
  /// with kUnavailable when the attempt budget is spent.
  void retry_or_fail(std::uint64_t call_id, const std::string& reason);
  void arm_attempt_timer(std::uint64_t call_id);

  std::string name_;
  Tuning tuning_;
  net::Endpoint ma_ = net::kNullEndpoint;
  double submit_busy_until_ = 0.0;
  std::uint64_t id_base_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
  struct QueuedSubmission {
    Profile profile;
    DoneFn done;
    double deadline_s = 0.0;
  };
  /// Submissions whose hand-off event has fired, keyed by call id and
  /// drained in id order (see drain_submissions).
  std::map<std::uint64_t, QueuedSubmission> queued_submissions_;
  std::uint64_t next_submission_ = 1;  ///< next call id to hand off
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  /// Current attempt's wire id -> call id; retries re-point it, so a
  /// message for a superseded attempt no longer resolves.
  std::unordered_map<std::uint64_t, std::uint64_t> wire_to_call_;
  /// Wire ids for retry attempts. Disjoint from next_id_ (top bit set)
  /// because drain_submissions relies on call ids being contiguous.
  std::uint64_t next_retry_wire_ = 0;
  std::unordered_map<std::uint64_t, net::Endpoint> call_sed_;
  std::vector<CallRecord> records_;
  std::unordered_map<std::uint64_t, std::size_t> record_of_;
  /// Persistent data ids each SED (by uid) is known to hold.
  std::unordered_map<std::uint64_t, std::set<std::string>> known_at_;
};

}  // namespace gc::diet
