// Scheduling agents: Master Agent (MA) and Local Agent (LA).
//
// "When a Master Agent receives a computation request from a client,
// agents collect computation abilities from servers (through the
// hierarchy) and chooses the best one according to some scheduling
// heuristics." (Section 2.1.)
//
// One class implements both kinds: an LA is an Agent with a parent; the MA
// is the root and is the only one that picks a server and answers clients.
// Every level applies the scheduling Policy to the candidates flowing up,
// and the MA additionally tracks its outstanding assignments per SED (the
// "list of requests" of Section 2.1) — the state that makes the default
// policy distribute simultaneous requests evenly (Figure 4 left).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "diet/protocol.hpp"
#include "dtm/catalog.hpp"
#include "dtm/messages.hpp"
#include "net/env.hpp"
#include "obs/trace.hpp"
#include "sched/policy.hpp"

namespace gc::diet {

struct AgentTuning {
  /// CPU time an agent spends per scheduling hop (request fan-out or
  /// response aggregation). Exclusive: an agent is a single-threaded
  /// reactor, so concurrent requests queue on it — this is what makes a
  /// flat (LA-less) hierarchy degrade with the SED count (bench A2).
  double processing_delay = 0.2e-3;
  /// Additional exclusive CPU per message sent or received (CORBA
  /// marshalling/unmarshalling of one request or candidate list).
  double per_message_cost = 10e-6;
  /// Log-normal CV applied to the processing delay.
  double delay_noise_cv = 0.06;
  /// How long to wait for children before scheduling with partial
  /// information (tolerates dead SEDs).
  double collect_timeout = 5.0;
  /// Evict a child after this many *consecutive* collect timeouts, so a
  /// dead SED stops slowing every request down. 0 disables eviction.
  int max_child_timeouts = 2;
  /// LA only: cap on candidates forwarded to the parent (0 = all).
  std::size_t forward_limit = 0;
  /// Period of liveness beacons this agent (LA) sends to its parent;
  /// 0 disables them (the default — no extra traffic in fault-free runs).
  double heartbeat_period = 0.0;
  /// Mark a child dead after this long without a heartbeat from it; dead
  /// children are skipped when collecting candidates, and revived by
  /// their next heartbeat (a drop-tolerant alternative to the strike
  /// eviction above, which erases for good). 0 disables the watchdog.
  double heartbeat_timeout = 0.0;

  // --- MA federation (multi-hierarchy deployments) ---
  /// Total federation hops a request may take from the MA it entered at.
  /// 1 = forward to direct peers only (their peers see ttl 0 and answer
  /// from their own shard); 0 disables forwarding entirely.
  std::uint32_t peer_ttl = 1;
  /// Bounded candidate fan-in: a peer MA answers with at most this many
  /// (ranked-best) candidates, so merge cost at the originating MA stays
  /// constant per shard no matter how large the peer's subtree is. 0 = all.
  std::size_t peer_top_k = 4;
  /// Forward to capable peers on every request, not only when no local
  /// child offers the service (the on-miss default).
  bool federate_always = false;
};

class Agent final : public net::Actor {
 public:
  enum class Kind { kMaster, kLocal };

  Agent(Kind kind, std::string name, std::unique_ptr<sched::Policy> policy,
        AgentTuning tuning, std::uint64_t seed);

  /// LA only: announces this agent (and its current services) to a parent.
  void register_at(net::Endpoint parent);

  void on_message(const net::Envelope& envelope) override;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t requests_handled() const {
    return requests_handled_;
  }
  [[nodiscard]] std::size_t child_count() const { return children_.size(); }
  [[nodiscard]] const std::set<std::string>& services() const {
    return services_;
  }
  /// MA: requests assigned to a SED and not yet reported done.
  [[nodiscard]] double outstanding(std::uint64_t sed_uid) const;
  /// MA: total assignments ever made to a SED (Figure 4's request counts).
  [[nodiscard]] std::uint64_t assigned_total(std::uint64_t sed_uid) const;
  [[nodiscard]] const sched::Policy& policy() const { return *policy_; }

  /// Replaces the scheduling policy (the plug-in scheduler hook).
  void set_policy(std::unique_ptr<sched::Policy> policy);

  /// Marks this agent dead (LA death fault): it detaches from the Env and
  /// ignores everything still in flight towards it.
  void fail();
  [[nodiscard]] bool failed() const { return failed_; }

  /// Stops the periodic loops (own heartbeat, child watchdogs) without
  /// failing the agent; RealEnv tests call this before Env::stop().
  void shutdown();

  /// Children currently marked dead by the heartbeat watchdog.
  [[nodiscard]] std::uint64_t heartbeat_evictions() const {
    return heartbeat_evictions_;
  }

  /// Replica catalog for this agent's subtree (whole hierarchy at the MA).
  [[nodiscard]] const dtm::ReplicaCatalog& catalog() const {
    return catalog_;
  }

  // --- MA federation -------------------------------------------------
  /// Gives this MA its federation identity: a nonzero uid (loop detection)
  /// and a disjoint request-key namespace (keys must be unique across the
  /// whole federation, since forwarded collects keep their key).
  void set_federation(std::uint32_t ma_uid, std::uint64_t request_key_base);
  /// MA only: adds a peer MA and announces this shard's services to it.
  /// Requires set_federation() first. Idempotent per endpoint.
  void connect_peer(net::Endpoint peer);
  [[nodiscard]] std::uint32_t ma_uid() const { return ma_uid_; }
  [[nodiscard]] std::size_t peer_count() const { return peers_.size(); }

  /// Federation counters, exposed for tests and the serving bench.
  struct PeerStats {
    std::uint64_t forwards = 0;    ///< kPeerCollect sent to peers
    std::uint64_t replies = 0;     ///< kPeerCandidates answered
    std::uint64_t dup_drops = 0;   ///< same key arrived twice (multi-path)
    std::uint64_t loop_drops = 0;  ///< forward looped back to its origin
    std::uint64_t evictions = 0;   ///< peers the watchdog marked dead
    std::uint64_t candidates_returned = 0;  ///< total across replies
  };
  [[nodiscard]] const PeerStats& peer_stats() const { return peer_stats_; }

 private:
  struct Child {
    net::Endpoint endpoint;
    bool is_sed;
    std::string name;
    std::uint64_t sed_uid = 0;   ///< 0 for LA children
    std::set<std::string> services;
    int consecutive_timeouts = 0;
    bool alive = true;           ///< false = heartbeat watchdog fired
    net::TimerId hb_timer = 0;   ///< pending heartbeat deadline
  };

  /// A peer MA in the federation. Unlike children, peers are equals: they
  /// are never evicted for good, only marked dead by the heartbeat
  /// watchdog (shard ejection) until their beacons resume.
  struct Peer {
    net::Endpoint endpoint = net::kNullEndpoint;
    std::uint32_t uid = 0;  ///< 0 until its announce arrives
    std::string name;
    std::set<std::string> services;
    bool alive = true;
    net::TimerId hb_timer = 0;
  };

  /// The children one collect fans out to: alive, offering the service,
  /// in children_ order (the send order), plus the same endpoints sorted
  /// for membership tests. Shared by every collect of the service until
  /// children_changed() drops it.
  struct Fanout {
    std::vector<net::Endpoint> in_order;
    std::vector<net::Endpoint> sorted;
  };

  struct Pending {
    bool from_client = false;
    bool from_peer = false;  ///< kPeerCollect: answer with kPeerCandidates
    /// MA uid the request entered the federation at (loop detection).
    std::uint32_t origin_uid = 0;
    /// Federation hops this agent may still grant when forwarding.
    std::uint32_t peer_budget = 0;
    net::Endpoint reply_to = net::kNullEndpoint;
    std::uint64_t client_request_id = 0;
    std::string service;
    std::int64_t in_bytes = 0;
    std::size_t expected = 0;
    std::size_t received = 0;
    std::vector<sched::Candidate> candidates;
    std::shared_ptr<const Fanout> asked;
    /// Children and peers that answered, sorted.
    std::vector<net::Endpoint> answered;
    bool finalizing = false;
    net::TimerId timeout_timer = 0;
    obs::TraceId trace_id = 0;  ///< carried from the incoming envelope
    obs::SpanId span = 0;       ///< collect -> finalize on this agent
    /// Persistent inputs declared by the client; priced against the
    /// catalog when candidates are finalized (locality-aware scheduling).
    std::vector<DataDep> deps;
  };

  void handle_sed_register(const net::Envelope& envelope);
  void handle_agent_register(const net::Envelope& envelope);
  void handle_submit(const net::Envelope& envelope);
  void handle_collect(const net::Envelope& envelope);
  void handle_candidates(const net::Envelope& envelope);
  void handle_job_done(const net::Envelope& envelope);
  void handle_heartbeat(const net::Envelope& envelope);
  void handle_peer_announce(const net::Envelope& envelope);
  void handle_peer_collect(const net::Envelope& envelope);
  void handle_peer_candidates(const net::Envelope& envelope);
  void handle_data_register(const net::Envelope& envelope);
  void handle_data_unregister(const net::Envelope& envelope);
  void handle_data_locate(const net::Envelope& envelope);
  /// Drops every replica a (dead/restarted) SED held from this catalog
  /// and, when anything was dropped, tells the parent to do the same.
  void drop_sed_replicas(std::uint64_t sed_uid);
  /// Fills each candidate's data-locality estimation fields from this
  /// agent's catalog (bytes that must move + modeled transfer time).
  void fill_locality(Pending& pending);
  void update_catalog_gauge();
  [[nodiscard]] Child* find_child(net::Endpoint endpoint);
  /// The cached fan-out list for a service, built on first use.
  [[nodiscard]] std::shared_ptr<const Fanout> fanout_for(
      const std::string& service);
  /// The one invalidation point of the fan-out cache: every change to
  /// children_ that can change a fan-out list (registration, re-register,
  /// service growth, eviction, alive/dead flip) calls this.
  void children_changed() { fanouts_.clear(); }
  [[nodiscard]] Peer* find_peer(net::Endpoint endpoint);
  /// (Re)arms the heartbeat deadline for one child.
  void arm_child_deadline(net::Endpoint child_endpoint);
  void arm_heartbeat();
  /// (Re)arms the shard-ejection deadline for one peer MA.
  void arm_peer_deadline(net::Endpoint peer_endpoint);
  /// Periodic liveness beacons to every peer MA (armed once, on the first
  /// connect_peer, when a heartbeat period is configured).
  void arm_peer_beat();
  void announce_to_peers();
  /// Shared tail of handle_candidates / handle_peer_candidates: merge one
  /// answer into the pending collect and finalize when all arrived.
  void accumulate_candidates(std::uint64_t key,
                             std::vector<sched::Candidate> candidates,
                             net::Endpoint from);

  void start_collect(std::uint64_t key, Pending pending,
                     const RequestCollectMsg& msg);
  void finalize(std::uint64_t key);
  /// Timeout bookkeeping: non-answering children accumulate strikes and
  /// are eventually evicted; answering children reset.
  void note_timeouts(const Pending& pending);
  void propagate_services();
  [[nodiscard]] double noisy(double base);

  /// Runs fn after `cost` seconds of *exclusive* agent CPU: work queues
  /// behind whatever the agent is already processing.
  void process_for(double cost, des::EventFn fn);
  /// Accounts CPU without a continuation (cheap bookkeeping like
  /// unmarshalling one reply).
  void charge_cpu(double cost);

  Kind kind_;
  std::string name_;
  std::unique_ptr<sched::Policy> policy_;
  AgentTuning tuning_;
  Rng rng_;

  net::Endpoint parent_ = net::kNullEndpoint;
  std::vector<Child> children_;
  /// service -> fan-out list; see Fanout and children_changed().
  std::unordered_map<std::string, std::shared_ptr<const Fanout>> fanouts_;
  /// MA only: peer master agents, in connect order (deterministic fan-out).
  std::vector<Peer> peers_;
  std::uint32_t ma_uid_ = 0;  ///< 0 = not federated
  bool peer_beat_armed_ = false;
  PeerStats peer_stats_;
  /// Peer-collect keys already expanded here, so the same request arriving
  /// along two federation paths (or duplicated on the wire) collects once.
  std::set<std::uint64_t> seen_peer_collects_;
  std::set<std::string> services_;
  /// Which SEDs below this agent hold which persistent data ids.
  dtm::ReplicaCatalog catalog_;

  std::uint64_t next_key_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  double cpu_busy_until_ = 0.0;

  // MA bookkeeping (Section 2.1's per-request state).
  std::unordered_map<std::uint64_t, double> outstanding_;
  std::unordered_map<std::uint64_t, std::uint64_t> assigned_total_;
  std::uint64_t requests_handled_ = 0;

  /// MA: submit keys already expanded, so a duplicated kRequestSubmit
  /// does not fan out (and skew the assignment bookkeeping) twice.
  std::set<std::pair<net::Endpoint, std::uint64_t>> seen_submits_;
  std::uint64_t heartbeat_evictions_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  std::uint64_t epoch_ = 0;  ///< bumped by fail()/shutdown(); kills loops
  bool failed_ = false;
};

}  // namespace gc::diet
