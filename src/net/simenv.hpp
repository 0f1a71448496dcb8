// DES-backed Env: virtual time, modeled transfer and computation costs.
//
// Two transfer models, selected per run:
//  - default: every message is priced with the closed-form
//    Topology::transfer_time at send time (the pre-contention model,
//    byte-identical to historical runs);
//  - contention (enable_contention()): bulk messages become fluid flows in
//    a net::FlowModel that fair-shares link capacity along the topology's
//    route, with a per-cluster disk/NFS stage for file-backed transfers.
//    Small control messages keep the closed form but still honor stream
//    FIFO order behind any bulk flow in progress on their stream.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/invariant.hpp"
#include "des/engine.hpp"
#include "net/env.hpp"
#include "net/fault.hpp"
#include "net/flow.hpp"
#include "obs/metrics.hpp"

namespace gc::net {

class SimEnv final : public Env {
 public:
  SimEnv(des::Engine& engine, const Topology& topology)
      : Env(topology), engine_(engine) {}

  [[nodiscard]] SimTime now() const override { return engine_.now(); }

  TimerId post_after(SimTime delay, des::EventFn fn) override {
    return engine_.schedule_after(delay, std::move(fn),
                                  des::EventTag::kTimer);
  }

  TimerId post_after_as(Endpoint owner, SimTime delay,
                        des::EventFn fn) override {
    return engine_.schedule_after(delay, std::move(fn), des::EventTag::kTimer,
                                  owner);
  }

  bool cancel_timer(TimerId id) override { return engine_.cancel(id); }

  void detach(Endpoint endpoint) override {
    if (endpoint < actors_.size()) actors_[endpoint].actor = nullptr;
  }

  void send(Envelope envelope) override;

  void execute(NodeId node, double modeled_seconds, std::function<int()> work,
               std::function<void(int)> done) override;

  /// Answers from the permanent attach ledger, so endpoints stay
  /// resolvable after detach (a dead SED still has a node). An endpoint
  /// that was NEVER attached is a caller bug: invariant violation in
  /// GC_CHECK builds, node 0 in release.
  [[nodiscard]] NodeId node_of(Endpoint endpoint) const override {
    const bool attached = endpoint != kNullEndpoint && endpoint < actors_.size();
    GC_INVARIANT(attached, "node_of(" + std::to_string(endpoint) +
                               "): endpoint was never attached");
    return attached ? actors_[endpoint].node : 0;
  }

  /// Switches bulk transfers (wire size >= min_flow_bytes) to the
  /// fair-sharing flow model. Must be called before traffic starts; the
  /// default (off) send path is byte-identical to the pre-flow-model env.
  void enable_contention(std::int64_t min_flow_bytes = 4096);

  [[nodiscard]] bool contention_enabled() const { return flow_ != nullptr; }
  /// nullptr when contention is off.
  [[nodiscard]] const FlowModel* flow_model() const { return flow_.get(); }

  /// Congestion-aware when contention is on: prices `bytes` at the
  /// current fair share of the route (including the disk stage for bulk
  /// sizes); otherwise the closed form.
  [[nodiscard]] double estimate_transfer_s(NodeId a, NodeId b,
                                           std::int64_t bytes) const override;

  [[nodiscard]] des::Engine& engine() { return engine_; }

  /// Installs (or clears, with nullptr) the fault-injection hook. The hook
  /// must outlive the env; with none installed the send path is unchanged.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

  /// Total bytes charged to the network model so far.
  [[nodiscard]] std::int64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }

  /// Bytes charged per directed (src, dst) node pair, in node order.
  /// Callers with a site map (the platform) can split this into LAN vs
  /// WAN traffic — what the data-locality bench reports. Aggregated from
  /// the per-stream state on each call; the reference stays valid until
  /// the next call.
  [[nodiscard]] const std::map<std::pair<NodeId, NodeId>, std::int64_t>&
  bytes_by_node_pair() const;

 private:
  struct StreamState;

  Endpoint do_attach(Actor& actor, NodeId node) override;
  /// Schedules one delivery; fifo_seq 0 = out-of-band (no FIFO check).
  void schedule_delivery(SimTime at, Envelope envelope, StreamState& stream,
                         std::uint64_t fifo_seq);
  /// FIFO-clamps `deliver_at` against the stream clock, advances it, and
  /// schedules the delivery (the tail of the classic send path).
  void deliver_clamped(StreamState& stream, Envelope envelope,
                       std::uint64_t fifo_seq, SimTime deliver_at);
  /// Starts envelope as a flow occupying its stream; on completion the
  /// stream un-busies and held messages drain in order.
  void dispatch_bulk(StreamState& stream, Envelope envelope,
                     std::uint64_t fifo_seq);
  void drain_held(StreamState& stream);

  /// One attached endpoint. `actor` is nulled on detach; `node` stays, so
  /// endpoints remain resolvable after detach (a dead SED still has a node).
  struct Entry {
    Actor* actor = nullptr;
    NodeId node = 0;
  };

  /// The live actor behind an endpoint; nullptr if detached or unknown.
  [[nodiscard]] Actor* actor_at(Endpoint endpoint) const {
    return endpoint < actors_.size() ? actors_[endpoint].actor : nullptr;
  }

  /// Per (src, dst) endpoint pair: everything the send hot path needs,
  /// resolved with ONE hash lookup per message instead of the former
  /// four parallel maps (stream clock, FIFO seq, fault seq, byte ledger)
  /// plus per-message metric-label construction. Endpoints are never
  /// reused, so the node pair and the cached per-link counters are fixed
  /// for the stream's lifetime.
  struct StreamState {
    NodeId src = 0;
    NodeId dst = 0;
    /// Time of the latest scheduled delivery. Messages on one pair deliver
    /// in send order, like a TCP/CORBA stream — a small control message
    /// cannot overtake a bulk transfer sent earlier on the same connection.
    SimTime clock = 0.0;
    bool clock_valid = false;
    /// FIFO check (GC_CHECK builds only): in-stream sends and deliveries
    /// are counted separately; each delivery must carry the next send seq.
    std::uint64_t fifo_seq = 0;
    std::uint64_t delivered_seq = 0;
    std::uint64_t fault_seq = 0;  ///< maintained while a hook is installed
    std::int64_t bytes = 0;       ///< ledger behind bytes_by_node_pair()
    /// Contention mode: a bulk flow is in progress on this stream; later
    /// sends queue in `held` and dispatch in order when it completes.
    bool busy = false;
    std::deque<std::pair<Envelope, std::uint64_t>> held;
    /// Lazily bound per-link instruments ("n<src>->n<dst>" label built
    /// once per stream, not per message); Metrics::reset() never
    /// invalidates them.
    obs::Counter* messages = nullptr;
    obs::Counter* bytes_counter = nullptr;
    obs::Counter* tampered = nullptr;
  };

  des::Engine& engine_;
  /// Indexed by endpoint: endpoints are dense from 1 and never reused, so
  /// slot 0 is the unused null endpoint and the table only grows.
  std::vector<Entry> actors_ = std::vector<Entry>(1);
  /// Never erased: deliveries and flows hold StreamState pointers.
  std::unordered_map<std::uint64_t, StreamState> streams_;
  FaultHook* fault_hook_ = nullptr;
  std::unique_ptr<FlowModel> flow_;  ///< non-null = contention mode
  std::int64_t min_flow_bytes_ = 4096;
  std::int64_t bytes_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
  /// Rebuilt by bytes_by_node_pair() from the stream ledgers.
  mutable std::map<std::pair<NodeId, NodeId>, std::int64_t> pair_bytes_;
};

}  // namespace gc::net
