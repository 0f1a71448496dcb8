// Execution environment abstraction.
//
// All middleware components (agents, SEDs, clients) are Actors written
// against Env. Its one implementation is SimEnv: the discrete-event
// simulation (virtual clock, modeled costs) that runs every experiment,
// with real numerics where a service computes them (see Env::execute).
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.hpp"
#include "des/event_fn.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"

namespace gc::net {

class Env;

/// Event-driven middleware component. on_message always runs on the Env's
/// dispatch context; actors never need their own locking.
class Actor {
 public:
  virtual ~Actor() = default;
  virtual void on_message(const Envelope& envelope) = 0;

  [[nodiscard]] Endpoint endpoint() const { return endpoint_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] Env* env() const { return env_; }

 private:
  friend class Env;
  Endpoint endpoint_ = kNullEndpoint;
  NodeId node_ = 0;
  Env* env_ = nullptr;
};

/// Handle for cancelling a pending timer; 0 is never a valid id.
using TimerId = std::uint64_t;

class Env {
 public:
  virtual ~Env() = default;

  /// Current virtual time in seconds.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Runs fn after `delay` seconds on the dispatch context. The returned
  /// id can cancel the timer before it fires. fn is the DES handler type
  /// (move-only, small-buffer): SimEnv hands it to the calendar as-is.
  virtual TimerId post_after(SimTime delay, des::EventFn fn) = 0;

  /// post_after, attributed to `owner` for the DES's independence
  /// bookkeeping (see des::Strategy). An actor arming a timer chain from
  /// outside its own dispatch context (deployment-time registration, the
  /// application's main program) passes its endpoint so the chain does
  /// not fall into the conservatively-shared root ownership.
  virtual TimerId post_after_as(Endpoint owner, SimTime delay,
                                des::EventFn fn) = 0;

  /// Cancels a pending timer; false if it already fired or is unknown.
  virtual bool cancel_timer(TimerId id) = 0;

  /// Registers an actor on a node; the actor becomes addressable.
  Endpoint attach(Actor& actor, NodeId node) {
    const Endpoint ep = do_attach(actor, node);
    actor.endpoint_ = ep;
    actor.node_ = node;
    actor.env_ = this;
    return ep;
  }

  virtual void detach(Endpoint endpoint) = 0;

  /// Sends an envelope; delivery is delayed by the topology's transfer
  /// time for envelope.wire_size(). Unknown destinations are dropped with
  /// a warning (as a real middleware drops messages for dead objects).
  virtual void send(Envelope envelope) = 0;

  /// Runs `work` as a computation on `node` that occupies `modeled_seconds`
  /// of that node's time: the virtual clock advances and `work` then runs
  /// inline at the completion event (services pass cheap synthetic work
  /// in simulation; real-mode services start their numerics on the
  /// thread pool at solve time and pass a `work` that joins them).
  /// `done(result)` is dispatched afterwards on the dispatch context.
  virtual void execute(NodeId node, double modeled_seconds,
                       std::function<int()> work,
                       std::function<void(int)> done) = 0;

  /// Node an endpoint is attached to. Real DIET deployments know this
  /// from the deployment file; SimEnv answers from its attach table.
  /// Agents use it to price candidate links in the data-locality term.
  [[nodiscard]] virtual NodeId node_of(Endpoint endpoint) const = 0;

  /// Modeled one-way time for `bytes` from `a` to `b` *as of now*: the
  /// topology's closed-form transfer_time, except under a contention model
  /// (SimEnv with flows enabled), where the current congestion census is
  /// priced in. All byte-costing outside src/net + src/platform goes
  /// through here (gclint rule net-cost), so schedulers see congestion.
  [[nodiscard]] virtual double estimate_transfer_s(NodeId a, NodeId b,
                                                   std::int64_t bytes) const {
    // gclint: allow(net-cost) the seam the rule funnels callers into
    return topology().transfer_time(a, b, bytes);
  }

  [[nodiscard]] const Topology& topology() const { return *topology_; }

 protected:
  explicit Env(const Topology& topology) : topology_(&topology) {}
  virtual Endpoint do_attach(Actor& actor, NodeId node) = 0;

 private:
  const Topology* topology_;
};

}  // namespace gc::net
