#include "net/simenv.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gc::net {

namespace {

/// Metric label for one directed node pair, e.g. "n2->n17". Cold path:
/// called once per stream when its counters are first bound, never per
/// message.
obs::Labels link_labels(NodeId src, NodeId dst) {
  // gclint: allow(hot-string) built once per stream, cached in StreamState
  return {{"link", "n" + std::to_string(src) + "->n" + std::to_string(dst)}};
}

}  // namespace

Endpoint SimEnv::do_attach(Actor& actor, NodeId node) {
  const auto ep = static_cast<Endpoint>(actors_.size());
  actors_.push_back(Entry{&actor, node});
  return ep;
}

void SimEnv::enable_contention(std::int64_t min_flow_bytes) {
  GC_CHECK_MSG(min_flow_bytes > 0, "min_flow_bytes must be positive");
  min_flow_bytes_ = min_flow_bytes;
  if (flow_ == nullptr) flow_ = std::make_unique<FlowModel>(engine_);
}

double SimEnv::estimate_transfer_s(NodeId a, NodeId b,
                                   std::int64_t bytes) const {
  if (flow_ == nullptr || a == b || bytes < min_flow_bytes_) {
    return topology().transfer_time(a, b, bytes);
  }
  Route route;
  topology().route(a, b, route);
  // Bulk estimates include the disk/NFS stage a file-backed transfer pays
  // (stage off the holder's storage, onto the destination's).
  route.add(topology().disk_read(a));
  route.add(topology().disk_write(b));
  if (route.empty()) return topology().transfer_time(a, b, bytes);
  return flow_->estimate(route, bytes);
}

const std::map<std::pair<NodeId, NodeId>, std::int64_t>&
SimEnv::bytes_by_node_pair() const {
  pair_bytes_.clear();
  // Unordered iteration feeding commutative += — order-independent.
  for (const auto& [key, stream] : streams_) {
    if (stream.bytes != 0) pair_bytes_[{stream.src, stream.dst}] += stream.bytes;
  }
  return pair_bytes_;
}

void SimEnv::send(Envelope envelope) {
  if (actor_at(envelope.to) == nullptr) {
    GC_WARN << "simenv: dropping message type " << envelope.type
            << " to unknown endpoint " << envelope.to;
    return;
  }
  const std::uint64_t stream_key =
      (static_cast<std::uint64_t>(envelope.from) << 32) | envelope.to;
  auto [stream_it, inserted] = streams_.try_emplace(stream_key);
  StreamState& stream = stream_it->second;
  if (inserted) {
    const NodeId dst = actors_[envelope.to].node;
    stream.src = actor_at(envelope.from) != nullptr
                     ? actors_[envelope.from].node
                     : dst;
    stream.dst = dst;
  }

  const std::int64_t wire = envelope.wire_size();
  const double delay = topology().transfer_time(stream.src, stream.dst, wire);
  ++messages_sent_;
  bytes_sent_ += wire;
  stream.bytes += wire;

  if (obs::metrics_on()) {
    if (stream.messages == nullptr) {
      auto& m = obs::Metrics::instance();
      const obs::Labels labels = link_labels(stream.src, stream.dst);
      stream.messages = &m.counter("net_messages_total", labels);
      stream.bytes_counter = &m.counter("net_bytes_total", labels);
    }
    stream.messages->inc();
    stream.bytes_counter->inc(static_cast<std::uint64_t>(wire));
  }

  // Fault injection: tampered messages (dropped, duplicated, delayed)
  // leave the per-stream FIFO model and deliver out of band; clean
  // messages — and everything when no hook is installed — take the exact
  // pre-existing path. Tampered messages stay on the closed-form cost
  // even in contention mode: a dropped or duplicated datagram is outside
  // the stream/flow abstraction by design.
  if (fault_hook_ != nullptr) {
    const FaultDecision decision = fault_hook_->on_message(
        engine_.now(), stream.src, stream.dst, envelope, ++stream.fault_seq);
    if (decision.tampered()) {
      if (obs::metrics_on()) {
        if (stream.tampered == nullptr) {
          stream.tampered = &obs::Metrics::instance().counter(
              "net_fault_tampered_total", link_labels(stream.src, stream.dst));
        }
        stream.tampered->inc();
      }
      if (decision.duplicate) {
        // The copy also crosses the wire: charge it like any message.
        ++messages_sent_;
        bytes_sent_ += wire;
        stream.bytes += wire;
        schedule_delivery(engine_.now() + delay + decision.dup_lag_s,
                          envelope, stream, 0);
      }
      if (decision.drop) {
        if (obs::tracing()) {
          obs::Tracer::instance().instant(
              engine_.now(), "fault:drop:" + std::to_string(envelope.type),
              "net:n" + std::to_string(stream.src), envelope.trace_id);
        }
        return;
      }
      schedule_delivery(engine_.now() + delay + decision.extra_delay_s,
                        std::move(envelope), stream, 0);
      return;
    }
  }

  if (flow_ != nullptr) {
    const bool bulk = wire >= min_flow_bytes_ && stream.src != stream.dst;
    if (envelope.oob) {
      // Out-of-band lane (WAN-engine stripes): its own parallel
      // connection, never serialized behind the stream, never FIFO-checked.
      if (bulk) {
        Route route;
        topology().route(stream.src, stream.dst, route);
        if (envelope.modeled_extra_bytes > 0) {
          Route staged;
          staged.latency_s = route.latency_s;
          staged.add(topology().disk_read(stream.src));
          for (int i = 0; i < route.hop_count; ++i) staged.add(route.hops[i]);
          staged.add(topology().disk_write(stream.dst));
          route = staged;
        }
        flow_->start(route, wire,
                     [this, s = &stream,
                      env = std::move(envelope)](double delivery_at) mutable {
                       schedule_delivery(delivery_at, std::move(env), *s, 0);
                     });
      } else {
        schedule_delivery(engine_.now() + delay, std::move(envelope), stream,
                          0);
      }
      return;
    }
    std::uint64_t fifo_seq = 0;
    if constexpr (check::kEnabled) fifo_seq = ++stream.fifo_seq;
    if (stream.busy) {
      // A bulk flow owns the stream: queue behind it, in send order.
      stream.held.emplace_back(std::move(envelope), fifo_seq);
      return;
    }
    if (bulk) {
      dispatch_bulk(stream, std::move(envelope), fifo_seq);
      return;
    }
    // Small control message on an idle stream: closed form, FIFO-clamped.
    deliver_clamped(stream, std::move(envelope), fifo_seq,
                    engine_.now() + delay);
    return;
  }

  // FIFO per connection: never deliver before an earlier message on the
  // same (src, dst) endpoint pair. The bump past the previous delivery is
  // *strict* (one ulp) so two messages on one stream never share a
  // timestamp — the engine's same-timestamp tie-break is then free to
  // reorder without ever breaking stream order (see test_schedule_fuzz).
  std::uint64_t fifo_seq = 0;
  if constexpr (check::kEnabled) fifo_seq = ++stream.fifo_seq;
  deliver_clamped(stream, std::move(envelope), fifo_seq,
                  engine_.now() + delay);
}

void SimEnv::deliver_clamped(StreamState& stream, Envelope envelope,
                             std::uint64_t fifo_seq, SimTime deliver_at) {
  if (stream.clock_valid && deliver_at <= stream.clock) {
    deliver_at = std::nextafter(stream.clock,
                                std::numeric_limits<SimTime>::infinity());
  }
  stream.clock = deliver_at;
  stream.clock_valid = true;
  schedule_delivery(deliver_at, std::move(envelope), stream, fifo_seq);
}

void SimEnv::dispatch_bulk(StreamState& stream, Envelope envelope,
                           std::uint64_t fifo_seq) {
  stream.busy = true;
  Route route;
  topology().route(stream.src, stream.dst, route);
  if (envelope.modeled_extra_bytes > 0) {
    // File-backed bulk data (IC staging, result tarballs): the transfer
    // reads off the source's disk/NFS and lands on the destination's —
    // both stages are links of the flow, charged at their bandwidth.
    Route staged;
    staged.latency_s = route.latency_s;
    staged.add(topology().disk_read(stream.src));
    for (int i = 0; i < route.hop_count; ++i) staged.add(route.hops[i]);
    staged.add(topology().disk_write(stream.dst));
    route = staged;
  }
  const std::int64_t wire = envelope.wire_size();
  flow_->start(route, wire,
               [this, s = &stream, fifo_seq,
                env = std::move(envelope)](double delivery_at) mutable {
                 deliver_clamped(*s, std::move(env), fifo_seq, delivery_at);
                 s->busy = false;
                 drain_held(*s);
               });
}

void SimEnv::drain_held(StreamState& stream) {
  while (!stream.held.empty() && !stream.busy) {
    Envelope env = std::move(stream.held.front().first);
    const std::uint64_t fifo_seq = stream.held.front().second;
    stream.held.pop_front();
    const std::int64_t wire = env.wire_size();
    if (wire >= min_flow_bytes_ && stream.src != stream.dst) {
      dispatch_bulk(stream, std::move(env), fifo_seq);
    } else {
      const double delay =
          topology().transfer_time(stream.src, stream.dst, wire);
      deliver_clamped(stream, std::move(env), fifo_seq, engine_.now() + delay);
    }
  }
}

void SimEnv::schedule_delivery(SimTime at, Envelope envelope,
                               StreamState& stream, std::uint64_t fifo_seq) {
  if (obs::tracing()) {
    // The in-flight hop as a span on the source node's network track: the
    // whole transfer, send to delivery, linked to the request's trace.
    obs::Tracer::instance().complete_span(
        engine_.now(), at - engine_.now(),
        "msg:" + std::to_string(envelope.type),
        "net:n" + std::to_string(stream.src), envelope.trace_id);
  }

  // The lambda (Envelope + stream pointer) fits EventFn's inline buffer,
  // so a message delivery never allocates. Stream pointers stay valid:
  // unordered_map nodes are stable and streams_ is never erased. The
  // delivery event is owned by the destination endpoint: its handler
  // mutates that actor's state, so deliveries to different actors commute
  // (the model checker's independence relation relies on this).
  const Endpoint owner = envelope.to;
  engine_.schedule_at(at, [this, stream = &stream, fifo_seq,
                           env = std::move(envelope)]() {
    if constexpr (check::kEnabled) {
      // Out-of-band deliveries (fault-tampered, fifo_seq 0) are exempt:
      // dropped and duplicated messages break exact succession by design.
      if (fifo_seq != 0) {
        GC_INVARIANT(fifo_seq == ++stream->delivered_seq,
                     strformat("simenv stream n%u->n%u delivered seq %llu "
                               "out of send order (FIFO broken)",
                               stream->src, stream->dst,
                               static_cast<unsigned long long>(fifo_seq)));
      }
    }
    Actor* actor = actor_at(env.to);
    if (actor == nullptr) return;  // actor detached in flight
    if (obs::tracing()) {
      obs::Tracer::instance().instant(
          engine_.now(), "deliver:" + std::to_string(env.type),
          "net:n" + std::to_string(actors_[env.to].node), env.trace_id);
    }
    actor->on_message(env);
  }, des::EventTag::kMessage, owner);
}

void SimEnv::execute(NodeId /*node*/, double modeled_seconds,
                     std::function<int()> work,
                     std::function<void(int)> done) {
  GC_CHECK_MSG(modeled_seconds >= 0.0, "negative computation time");
  engine_.schedule_after(
      modeled_seconds,
      [work = std::move(work), done = std::move(done)]() mutable {
        const int result = work ? work() : 0;
        done(result);
      },
      des::EventTag::kExecute);
}

}  // namespace gc::net
