#include "diet/agent.hpp"

#include <algorithm>
#include <utility>

#include "check/invariant.hpp"
#include "check/mutation.hpp"
#include "common/log.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace gc::diet {

Agent::Agent(Kind kind, std::string name,
             std::unique_ptr<sched::Policy> policy, AgentTuning tuning,
             std::uint64_t seed)
    : kind_(kind),
      name_(std::move(name)),
      policy_(std::move(policy)),
      tuning_(tuning),
      rng_(seed) {
  GC_CHECK(policy_ != nullptr);
}

void Agent::set_policy(std::unique_ptr<sched::Policy> policy) {
  GC_CHECK(policy != nullptr);
  policy_ = std::move(policy);
}

void Agent::register_at(net::Endpoint parent) {
  GC_CHECK_MSG(kind_ == Kind::kLocal, "only LAs register at a parent");
  parent_ = parent;
  propagate_services();
  if (tuning_.heartbeat_period > 0.0) arm_heartbeat();
}

void Agent::arm_heartbeat() {
  const std::uint64_t epoch = epoch_;
  env()->post_after_as(endpoint(), tuning_.heartbeat_period, [this, epoch]() {
    if (epoch != epoch_ || failed_ || parent_ == net::kNullEndpoint) return;
    HeartbeatMsg beat;
    beat.seq = ++heartbeat_seq_;
    env()->send(
        net::Envelope{endpoint(), parent_, kHeartbeat, beat.encode(), 0});
    arm_heartbeat();
  });
}

void Agent::fail() {
  failed_ = true;
  ++epoch_;
  env()->detach(endpoint());
}

void Agent::shutdown() {
  ++epoch_;
  for (auto& child : children_) {
    if (child.hb_timer != 0) {
      env()->cancel_timer(child.hb_timer);
      child.hb_timer = 0;
    }
  }
  for (auto& peer : peers_) {
    if (peer.hb_timer != 0) {
      env()->cancel_timer(peer.hb_timer);
      peer.hb_timer = 0;
    }
  }
}

void Agent::set_federation(std::uint32_t ma_uid,
                           std::uint64_t request_key_base) {
  GC_CHECK_MSG(kind_ == Kind::kMaster, "only MAs federate");
  GC_CHECK_MSG(ma_uid != 0, "federation uid 0 is reserved for 'unfederated'");
  ma_uid_ = ma_uid;
  next_key_ = request_key_base + 1;
}

void Agent::connect_peer(net::Endpoint peer_endpoint) {
  GC_CHECK_MSG(kind_ == Kind::kMaster, "only MAs federate");
  GC_CHECK_MSG(ma_uid_ != 0, "set_federation() before connect_peer()");
  if (find_peer(peer_endpoint) == nullptr) {
    Peer peer;
    peer.endpoint = peer_endpoint;
    peers_.push_back(std::move(peer));
    arm_peer_deadline(peer_endpoint);
  }
  // Always announce, even if the peer was already learned passively from
  // ITS announce — it still needs ours.
  PeerAnnounceMsg msg;
  msg.ma_uid = ma_uid_;
  msg.name = name_;
  msg.services.assign(services_.begin(), services_.end());
  env()->send(net::Envelope{endpoint(), peer_endpoint, kPeerAnnounce,
                            msg.encode(), 0});
  if (tuning_.heartbeat_period > 0.0 && !peer_beat_armed_) {
    peer_beat_armed_ = true;
    arm_peer_beat();
  }
}

Agent::Peer* Agent::find_peer(net::Endpoint endpoint) {
  for (auto& peer : peers_) {
    if (peer.endpoint == endpoint) return &peer;
  }
  return nullptr;
}

void Agent::arm_peer_beat() {
  const std::uint64_t epoch = epoch_;
  env()->post_after_as(endpoint(), tuning_.heartbeat_period, [this, epoch]() {
    if (epoch != epoch_ || failed_) return;
    HeartbeatMsg beat;
    beat.seq = ++heartbeat_seq_;
    const net::Bytes payload = beat.encode();
    // Dead-marked peers are beaten too: our beacons are what revive us in
    // THEIR watchdog once a partition ends.
    for (const auto& peer : peers_) {
      env()->send(
          net::Envelope{endpoint(), peer.endpoint, kHeartbeat, payload, 0});
    }
    arm_peer_beat();
  });
}

void Agent::arm_peer_deadline(net::Endpoint peer_endpoint) {
  if (tuning_.heartbeat_timeout <= 0.0) return;
  Peer* peer = find_peer(peer_endpoint);
  if (peer == nullptr) return;
  if (peer->hb_timer != 0) env()->cancel_timer(peer->hb_timer);
  peer->hb_timer = env()->post_after_as(
      endpoint(), tuning_.heartbeat_timeout, [this, peer_endpoint]() {
        if (failed_) return;
        Peer* p = find_peer(peer_endpoint);
        if (p == nullptr || !p->alive) return;
        p->alive = false;
        p->hb_timer = 0;
        ++peer_stats_.evictions;
        GC_WARN << "agent " << name_ << ": no heartbeat from peer MA "
                << (p->name.empty() ? "(unannounced)" : p->name) << " for "
                << tuning_.heartbeat_timeout << "s, ejecting the shard";
        if (obs::tracing()) {
          obs::Tracer::instance().instant(env()->now(), "peer-dead:" + p->name,
                                          "agent:" + name_, 0);
        }
        if (obs::metrics_on()) {
          obs::Metrics::instance()
              .counter("diet_federation_peer_evictions_total",
                       {{"agent", name_}})
              .inc();
        }
      });
}

void Agent::announce_to_peers() {
  PeerAnnounceMsg msg;
  msg.ma_uid = ma_uid_;
  msg.name = name_;
  msg.services.assign(services_.begin(), services_.end());
  const net::Bytes payload = msg.encode();
  for (const auto& peer : peers_) {
    env()->send(
        net::Envelope{endpoint(), peer.endpoint, kPeerAnnounce, payload, 0});
  }
}

void Agent::handle_peer_announce(const net::Envelope& envelope) {
  GC_CHECK_MSG(kind_ == Kind::kMaster, "peer announces go MA to MA");
  const PeerAnnounceMsg msg = PeerAnnounceMsg::decode(envelope.payload);
  Peer* peer = find_peer(envelope.from);
  if (peer == nullptr) {
    // The peer announced before our own connect_peer() ran (federation
    // wiring is symmetric but not atomic); learn it now.
    Peer p;
    p.endpoint = envelope.from;
    peers_.push_back(std::move(p));
    peer = &peers_.back();
    arm_peer_deadline(envelope.from);
  }
  peer->uid = msg.ma_uid;
  peer->name = msg.name;
  peer->services.clear();
  peer->services.insert(msg.services.begin(), msg.services.end());
}

Agent::Child* Agent::find_child(net::Endpoint endpoint) {
  for (auto& child : children_) {
    if (child.endpoint == endpoint) return &child;
  }
  return nullptr;
}

std::shared_ptr<const Agent::Fanout> Agent::fanout_for(
    const std::string& service) {
  auto [it, inserted] = fanouts_.try_emplace(service);
  if (inserted) {
    auto fanout = std::make_shared<Fanout>();
    for (const auto& child : children_) {
      if (!child.alive) continue;  // heartbeat watchdog marked it dead
      if (child.services.count(service) > 0) {
        fanout->in_order.push_back(child.endpoint);
      }
    }
    fanout->sorted = fanout->in_order;
    std::sort(fanout->sorted.begin(), fanout->sorted.end());
    it->second = std::move(fanout);
  }
  return it->second;
}

void Agent::arm_child_deadline(net::Endpoint child_endpoint) {
  if (tuning_.heartbeat_timeout <= 0.0) return;
  Child* child = find_child(child_endpoint);
  if (child == nullptr) return;
  if (child->hb_timer != 0) env()->cancel_timer(child->hb_timer);
  child->hb_timer =
      env()->post_after_as(endpoint(), tuning_.heartbeat_timeout, [this, child_endpoint]() {
        if (failed_) return;
        // The endpoint is the child's identity at arm time: if it
        // re-registered since (crash-restart), this deadline is stale.
        Child* c = find_child(child_endpoint);
        if (c == nullptr || !c->alive) return;
        c->alive = false;
        c->hb_timer = 0;
        children_changed();
        ++heartbeat_evictions_;
        GC_WARN << "agent " << name_ << ": no heartbeat from " << c->name
                << " for " << tuning_.heartbeat_timeout
                << "s, marking it dead";
        // A dead SED's replicas are unreachable: drop them so locate
        // answers and locality pricing never point at it. (A dead LA's
        // SEDs are still alive and directly reachable — keep theirs.)
        // Mutation seam kKeepReplicasOnEviction re-introduces the leak
        // where eviction forgot this cleanup.
        if (c->is_sed &&
            !check::mutation_enabled(
                check::Mutation::kKeepReplicasOnEviction)) {
          drop_sed_replicas(c->sed_uid);
        }
        if (obs::tracing()) {
          obs::Tracer::instance().instant(env()->now(), "hb-dead:" + c->name,
                                          "agent:" + name_, 0);
        }
        if (obs::metrics_on()) {
          obs::Metrics::instance()
              .counter("diet_agent_hb_evictions_total", {{"agent", name_}})
              .inc();
        }
      });
}

void Agent::handle_heartbeat(const net::Envelope& envelope) {
  Child* child = find_child(envelope.from);
  if (child == nullptr) {
    // Not a child: maybe a peer MA's federation beacon.
    Peer* peer = find_peer(envelope.from);
    if (peer == nullptr) return;  // from an evicted or unknown sender
    if (!peer->alive) {
      peer->alive = true;
      GC_WARN << "agent " << name_ << ": heartbeat from ejected peer MA "
              << peer->name << ", re-admitting the shard";
      if (obs::tracing()) {
        obs::Tracer::instance().instant(env()->now(),
                                        "peer-revive:" + peer->name,
                                        "agent:" + name_, 0);
      }
    }
    arm_peer_deadline(envelope.from);
    return;
  }
  if (!child->alive) {
    // A heartbeat from a dead-marked child heals it: either the beacons
    // were merely dropped, or the partition around it ended.
    child->alive = true;
    children_changed();
    GC_WARN << "agent " << name_ << ": heartbeat from dead-marked "
            << child->name << ", reviving it";
    if (obs::tracing()) {
      obs::Tracer::instance().instant(env()->now(),
                                      "hb-revive:" + child->name,
                                      "agent:" + name_, 0);
    }
  }
  child->consecutive_timeouts = 0;
  arm_child_deadline(envelope.from);
}

void Agent::propagate_services() {
  // The MA's analogue of telling a parent: keep every peer MA's view of
  // this shard's services current (runs on the same triggers — child
  // registration and eviction).
  if (kind_ == Kind::kMaster && !peers_.empty()) announce_to_peers();
  if (parent_ == net::kNullEndpoint) return;
  AgentRegisterMsg msg;
  msg.name = name_;
  msg.services.assign(services_.begin(), services_.end());
  env()->send(
      net::Envelope{endpoint(), parent_, kAgentRegister, msg.encode(), 0});
}

double Agent::noisy(double base) {
  if (tuning_.delay_noise_cv <= 0.0 || base <= 0.0) return base;
  return rng_.lognormal_with_mean(base, tuning_.delay_noise_cv);
}

void Agent::charge_cpu(double cost) {
  const double now = env()->now();
  cpu_busy_until_ = std::max(cpu_busy_until_, now) + cost;
}

void Agent::process_for(double cost, des::EventFn fn) {
  const double now = env()->now();
  cpu_busy_until_ = std::max(cpu_busy_until_, now) + cost;
  env()->post_after(cpu_busy_until_ - now, std::move(fn));
}

double Agent::outstanding(std::uint64_t sed_uid) const {
  auto it = outstanding_.find(sed_uid);
  return it != outstanding_.end() ? it->second : 0.0;
}

std::uint64_t Agent::assigned_total(std::uint64_t sed_uid) const {
  auto it = assigned_total_.find(sed_uid);
  return it != assigned_total_.end() ? it->second : 0;
}

void Agent::on_message(const net::Envelope& envelope) {
  if (failed_) return;
  switch (envelope.type) {
    case kSedRegister:
      handle_sed_register(envelope);
      break;
    case kAgentRegister:
      handle_agent_register(envelope);
      break;
    case kRequestSubmit:
      handle_submit(envelope);
      break;
    case kRequestCollect:
      handle_collect(envelope);
      break;
    case kCandidates:
      handle_candidates(envelope);
      break;
    case kJobDone:
      handle_job_done(envelope);
      break;
    case kHeartbeat:
      handle_heartbeat(envelope);
      break;
    case kPeerAnnounce:
      handle_peer_announce(envelope);
      break;
    case kPeerCollect:
      handle_peer_collect(envelope);
      break;
    case kPeerCandidates:
      handle_peer_candidates(envelope);
      break;
    case dtm::kDataRegister:
      handle_data_register(envelope);
      break;
    case dtm::kDataUnregister:
      handle_data_unregister(envelope);
      break;
    case dtm::kDataLocate:
      handle_data_locate(envelope);
      break;
    case kRegisterAck:
      break;
    default:
      GC_WARN << "agent " << name_ << ": unexpected message type "
              << envelope.type;
  }
}

void Agent::handle_sed_register(const net::Envelope& envelope) {
  const SedRegisterMsg msg = SedRegisterMsg::decode(envelope.payload);
  // Topology edge for the request journal; idempotent, so the re-register
  // path below is covered too.
  if (obs::journal_on()) obs::Journal::instance().note_edge(msg.name, name_);
  // A restarted SED re-registers under a fresh endpoint: update the
  // existing child (keyed by name) instead of growing a doppelganger.
  for (auto& existing : children_) {
    if (existing.is_sed && existing.name == msg.name) {
      if (existing.hb_timer != 0) {
        env()->cancel_timer(existing.hb_timer);
        existing.hb_timer = 0;
      }
      existing.endpoint = envelope.from;
      existing.sed_uid = msg.sed_uid;
      existing.alive = true;
      existing.consecutive_timeouts = 0;
      // A re-registration means the SED restarted: its in-memory data
      // store is gone, so every replica the catalog still credits it
      // with is stale.
      drop_sed_replicas(msg.sed_uid);
      for (const auto& desc : msg.services) {
        existing.services.insert(desc.path());
        services_.insert(desc.path());
      }
      children_changed();
      env()->send(
          net::Envelope{endpoint(), envelope.from, kRegisterAck, {}, 0});
      arm_child_deadline(envelope.from);
      propagate_services();
      return;
    }
  }
  Child child;
  child.endpoint = envelope.from;
  child.is_sed = true;
  child.name = msg.name;
  child.sed_uid = msg.sed_uid;
  for (const auto& desc : msg.services) {
    child.services.insert(desc.path());
    services_.insert(desc.path());
  }
  children_.push_back(std::move(child));
  children_changed();
  env()->send(net::Envelope{endpoint(), envelope.from, kRegisterAck, {}, 0});
  arm_child_deadline(envelope.from);
  propagate_services();
}

void Agent::handle_agent_register(const net::Envelope& envelope) {
  const AgentRegisterMsg msg = AgentRegisterMsg::decode(envelope.payload);
  if (obs::journal_on()) obs::Journal::instance().note_edge(msg.name, name_);
  // An LA re-registers whenever its service list grows; update in place.
  for (auto& child : children_) {
    if (child.endpoint == envelope.from) {
      child.services.insert(msg.services.begin(), msg.services.end());
      services_.insert(msg.services.begin(), msg.services.end());
      children_changed();
      propagate_services();
      return;
    }
  }
  Child child;
  child.endpoint = envelope.from;
  child.is_sed = false;
  child.name = msg.name;
  child.services.insert(msg.services.begin(), msg.services.end());
  services_.insert(msg.services.begin(), msg.services.end());
  children_.push_back(std::move(child));
  children_changed();
  env()->send(net::Envelope{endpoint(), envelope.from, kRegisterAck, {}, 0});
  arm_child_deadline(envelope.from);
  propagate_services();
}

void Agent::handle_submit(const net::Envelope& envelope) {
  GC_CHECK_MSG(kind_ == Kind::kMaster, "clients must submit to the MA");
  // Clients stamp their request id (>= 1) as the trace id on every
  // submit; a zero here means a hand-rolled envelope skipped the client
  // and the whole request chain would be untraceable.
  GC_INVARIANT(envelope.trace_id != 0,
               "client submit envelope carries no trace id");
  const RequestSubmitMsg msg = RequestSubmitMsg::decode(envelope.payload);
  // A duplicated submit must not fan out twice: the client ignores the
  // second reply, but the phantom assignment would skew outstanding_.
  if (!seen_submits_.insert({envelope.from, msg.client_request_id}).second) {
    return;
  }
  Pending pending;
  pending.from_client = true;
  pending.reply_to = envelope.from;
  pending.client_request_id = msg.client_request_id;
  pending.service = msg.desc.path();
  pending.in_bytes = msg.in_bytes;
  pending.trace_id = envelope.trace_id;
  pending.deps = msg.deps;
  // Federation entry point: this MA is the origin, with the full hop
  // budget. Both stay zero on an unfederated MA.
  pending.origin_uid = ma_uid_;
  pending.peer_budget = peers_.empty() ? 0 : tuning_.peer_ttl;

  RequestCollectMsg collect;
  collect.request_key = next_key_++;
  collect.desc = msg.desc;
  collect.in_bytes = msg.in_bytes;
  collect.timeout_s = tuning_.collect_timeout;
  collect.deps = msg.deps;
  start_collect(collect.request_key, std::move(pending), collect);
}

void Agent::handle_collect(const net::Envelope& envelope) {
  const RequestCollectMsg msg = RequestCollectMsg::decode(envelope.payload);
  auto existing = pending_.find(msg.request_key);
  if (existing != pending_.end()) {
    // Same parent re-asking with the same key = a duplicated
    // kRequestCollect on the wire; the collect is already running, drop
    // the copy. Anything else colliding on the key is a real bug.
    GC_INVARIANT(existing->second.reply_to == envelope.from &&
                     existing->second.service == msg.desc.path(),
                 "request key " + std::to_string(msg.request_key) +
                     " collision at agent " + name_);
    return;
  }
  Pending pending;
  pending.from_client = false;
  pending.reply_to = envelope.from;
  pending.service = msg.desc.path();
  pending.in_bytes = msg.in_bytes;
  pending.trace_id = envelope.trace_id;
  pending.deps = msg.deps;
  start_collect(msg.request_key, std::move(pending), msg);
}

void Agent::start_collect(std::uint64_t key, Pending pending,
                          const RequestCollectMsg& msg) {
  std::shared_ptr<const Fanout> fanout = fanout_for(pending.service);
  const std::vector<net::Endpoint>& targets = fanout->in_order;
  // Federation fan-out: forward to capable peer shards when the hop budget
  // allows — on every request under federate_always, otherwise only when
  // no local child offers the service (a shard miss).
  std::vector<net::Endpoint> peer_targets;
  if (kind_ == Kind::kMaster && !peers_.empty() && pending.peer_budget > 0 &&
      (tuning_.federate_always || targets.empty())) {
    for (const auto& peer : peers_) {
      if (!peer.alive) continue;  // ejected shard
      if (peer.uid == pending.origin_uid) continue;  // never back to origin
      if (peer.endpoint == pending.reply_to) continue;  // nor to the asker
      if (peer.services.count(pending.service) == 0) continue;
      peer_targets.push_back(peer.endpoint);
    }
  }
  pending.expected = targets.size() + peer_targets.size();
  pending.asked = fanout;
  if (obs::tracing()) {
    pending.span = obs::Tracer::instance().begin_span(
        env()->now(), "collect:" + pending.service, "agent:" + name_,
        pending.trace_id);
  }
  if (obs::metrics_on()) {
    obs::Metrics::instance()
        .counter("diet_agent_requests_total", {{"agent", name_}})
        .inc();
  }
  const obs::TraceId trace_id = pending.trace_id;
  auto [it, inserted] = pending_.emplace(key, std::move(pending));
  if (!inserted) {
    GC_INVARIANT(false, "duplicate in-flight request key " +
                            std::to_string(key) + " at agent " + name_);
    GC_WARN << "agent " << name_ << ": duplicate request key " << key;
    return;
  }

  if (targets.empty() && peer_targets.empty()) {
    // No capable child (or peer): answer (empty) after the processing
    // delay.
    process_for(noisy(tuning_.processing_delay),
                [this, key]() { finalize(key); });
    return;
  }

  // My wait budget; children get a reduced share so their (possibly
  // partial) answers arrive before I give up.
  const double budget =
      msg.timeout_s > 0.0 ? msg.timeout_s : tuning_.collect_timeout;
  // Every child gets the same bytes, so the forwarded collect is encoded
  // once per fan-out (the message is fixed here, so encoding now or at
  // send time yields the same wire bytes).
  RequestCollectMsg forwarded = msg;
  forwarded.timeout_s = 0.6 * budget;
  // Children are inside this hierarchy: strip the federation section so
  // intra-hierarchy collects keep their pre-federation bytes.
  forwarded.origin_uid = 0;
  forwarded.ttl = 0;
  net::Bytes payload = forwarded.encode();
  // Peers get the section: who the origin is (loop detection) and how many
  // further hops they may grant.
  net::Bytes peer_payload;
  if (!peer_targets.empty()) {
    RequestCollectMsg peer_forwarded = msg;
    peer_forwarded.timeout_s = 0.6 * budget;
    peer_forwarded.origin_uid = it->second.origin_uid;
    peer_forwarded.ttl =
        it->second.peer_budget > 0 ? it->second.peer_budget - 1 : 0;
    peer_payload = peer_forwarded.encode();
  }

  // Fan-out costs exclusive CPU: base processing plus marshalling one
  // collect message per child/peer.
  const double fanout_cost =
      noisy(tuning_.processing_delay) +
      tuning_.per_message_cost *
          static_cast<double>(1 + targets.size() + peer_targets.size());
  process_for(
      fanout_cost,
      [this, key, fanout = std::move(fanout), payload = std::move(payload),
       peer_payload = std::move(peer_payload),
       peer_targets = std::move(peer_targets), budget, trace_id]() {
        const std::vector<net::Endpoint>& targets = fanout->in_order;
        if (failed_) return;
        if (obs::metrics_on()) {
          obs::Metrics::instance()
              .counter("diet_agent_forwards_total", {{"agent", name_}})
              .inc(targets.size());
          if (!peer_targets.empty()) {
            obs::Metrics::instance()
                .counter("diet_federation_forwards_total",
                         {{"agent", name_}})
                .inc(peer_targets.size());
          }
        }
        for (const net::Endpoint target : targets) {
          env()->send(net::Envelope{endpoint(), target, kRequestCollect,
                                    payload, 0, trace_id});
        }
        peer_stats_.forwards += peer_targets.size();
        for (const net::Endpoint target : peer_targets) {
          env()->send(net::Envelope{endpoint(), target, kPeerCollect,
                                    peer_payload, 0, trace_id});
        }
        // Schedule with whatever arrived if a child never answers.
        const net::TimerId timer = env()->post_after(budget, [this, key]() {
          if (failed_) return;
          auto it = pending_.find(key);
          if (it != pending_.end() && !it->second.finalizing) {
            GC_WARN << "agent " << name_ << ": request " << key
                    << " timed out with " << it->second.received << "/"
                    << it->second.expected << " answers";
            it->second.finalizing = true;
            finalize(key);
          }
        });
        auto it = pending_.find(key);
        if (it != pending_.end()) it->second.timeout_timer = timer;
      });
}

void Agent::handle_candidates(const net::Envelope& envelope) {
  CandidatesMsg msg = CandidatesMsg::decode(envelope.payload);
  accumulate_candidates(msg.request_key, std::move(msg.candidates),
                        envelope.from);
}

void Agent::handle_peer_collect(const net::Envelope& envelope) {
  GC_CHECK_MSG(kind_ == Kind::kMaster, "peer collects go MA to MA");
  const RequestCollectMsg msg = RequestCollectMsg::decode(envelope.payload);
  if (msg.origin_uid == ma_uid_) {
    // The forward looped back to the shard the request entered at. On
    // dense federation graphs TTL alone cannot prevent this; the origin
    // check does.
    ++peer_stats_.loop_drops;
    return;
  }
  if (!seen_peer_collects_.insert(msg.request_key).second) {
    // Cross-MA dedup: the same request reached this shard along two
    // federation paths (or was duplicated on the wire). Collect once,
    // drop the copies silently — the first collect's answer serves all.
    ++peer_stats_.dup_drops;
    return;
  }
  Pending pending;
  pending.from_peer = true;
  pending.reply_to = envelope.from;
  pending.service = msg.desc.path();
  pending.in_bytes = msg.in_bytes;
  pending.trace_id = envelope.trace_id;
  pending.deps = msg.deps;
  pending.origin_uid = msg.origin_uid;
  pending.peer_budget = msg.ttl;
  start_collect(msg.request_key, std::move(pending), msg);
}

void Agent::handle_peer_candidates(const net::Envelope& envelope) {
  PeerCandidatesMsg msg = PeerCandidatesMsg::decode(envelope.payload);
  accumulate_candidates(msg.request_key, std::move(msg.candidates),
                        envelope.from);
}

void Agent::accumulate_candidates(std::uint64_t key,
                                  std::vector<sched::Candidate> candidates,
                                  net::Endpoint from) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;  // late answer after timeout
  Pending& pending = it->second;
  // A duplicated answer would double-count towards `expected` and list
  // its candidates twice; one answer per child/peer per request.
  const auto at = std::lower_bound(pending.answered.begin(),
                                   pending.answered.end(), from);
  if (at != pending.answered.end() && *at == from) return;
  pending.answered.insert(at, from);
  pending.received += 1;
  // Unmarshalling one reply (and its candidate list) is exclusive CPU.
  charge_cpu(tuning_.per_message_cost *
             static_cast<double>(1 + candidates.size()));
  for (auto& candidate : candidates) {
    pending.candidates.push_back(std::move(candidate));
  }
  if (pending.received >= pending.expected && !pending.finalizing) {
    pending.finalizing = true;
    process_for(noisy(tuning_.processing_delay) +
                    tuning_.per_message_cost *
                        static_cast<double>(pending.candidates.size()),
                [this, key]() { finalize(key); });
  }
}

void Agent::finalize(std::uint64_t key) {
  if (failed_) return;  // a dead agent answers nothing
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  if (pending.timeout_timer != 0) {
    env()->cancel_timer(pending.timeout_timer);
  }
  note_timeouts(pending);

  sched::RequestContext request;
  request.request_id = key;
  request.service = pending.service;
  request.in_bytes = pending.in_bytes;

  // Candidates accumulate in reply-arrival order, which is incidental:
  // replies landing at the same instant are logically concurrent, and the
  // DES tie-break may process them either way. Rank from a canonical
  // order so the chosen SED depends only on the candidates themselves
  // (the schedule fuzzer relies on this).
  // uids are unique, so this has exactly one result.
  sched::order_by_key(pending.candidates, [](const sched::Candidate& c) {
    return c.sed_uid;
  });

  if (kind_ == Kind::kMaster) {
    // Fill the agent-side view of each SED's outstanding assignments
    // before ranking (Section 2.1's request bookkeeping).
    for (auto& candidate : pending.candidates) {
      candidate.est.agent_assigned = outstanding(candidate.sed_uid);
    }
  }
  // Price data locality at every level: LAs rank their subtree with their
  // own catalog, the MA re-prices with the hierarchy-wide one (the fields
  // are not serialized, so each level's fill is independent).
  fill_locality(pending);
  policy_->rank(pending.candidates, request, rng_);

  if (kind_ == Kind::kMaster && pending.from_peer) {
    // Answer the asking MA with this shard's best candidates, truncated to
    // the federation's top-k bound: fan-in at the originating MA stays
    // constant per shard regardless of subtree size. The policy ranked
    // best-first above, so truncation keeps the strongest.
    if (tuning_.peer_top_k > 0 &&
        pending.candidates.size() > tuning_.peer_top_k) {
      pending.candidates.resize(tuning_.peer_top_k);
    }
    PeerCandidatesMsg up;
    up.request_key = key;
    up.ma_uid = ma_uid_;
    up.candidates = std::move(pending.candidates);
    ++peer_stats_.replies;
    peer_stats_.candidates_returned += up.candidates.size();
    ++requests_handled_;
    if (pending.span != 0) {
      obs::Tracer::instance().end_span(pending.span, env()->now());
    }
    env()->send(net::Envelope{endpoint(), pending.reply_to, kPeerCandidates,
                              up.encode(), 0, pending.trace_id});
    return;
  }

  if (kind_ == Kind::kMaster) {
    GC_CHECK_MSG(pending.from_client, "MA finalizing a non-client request");
    RequestReplyMsg reply;
    reply.client_request_id = pending.client_request_id;
    reply.found = !pending.candidates.empty();
    // Tell the client which declared deps resolve to a live replica
    // somewhere: those ship as references, the rest as full data.
    for (const auto& dep : pending.deps) {
      const auto* replicas = catalog_.locate(dep.data_id);
      if (replicas != nullptr && !replicas->empty()) {
        reply.available_ids.push_back(dep.data_id);
      }
    }
    if (reply.found) {
      reply.chosen = pending.candidates.front();
      outstanding_[reply.chosen.sed_uid] += 1.0;
      assigned_total_[reply.chosen.sed_uid] += 1;
    }
    ++requests_handled_;
    if (pending.span != 0) {
      obs::Tracer::instance().span_arg(
          pending.span, "chosen",
          reply.found ? reply.chosen.sed_name : "(none)");
      obs::Tracer::instance().end_span(pending.span, env()->now());
    }
    env()->send(net::Envelope{endpoint(), pending.reply_to, kRequestReply,
                              reply.encode(), 0, pending.trace_id});
    return;
  }

  // LA: forward the (sorted, possibly truncated) list to the parent.
  if (tuning_.forward_limit > 0 &&
      pending.candidates.size() > tuning_.forward_limit) {
    pending.candidates.resize(tuning_.forward_limit);
  }
  CandidatesMsg up;
  up.request_key = key;
  up.candidates = std::move(pending.candidates);
  obs::Tracer::instance().end_span(pending.span, env()->now());
  env()->send(net::Envelope{endpoint(), pending.reply_to, kCandidates,
                            up.encode(), 0, pending.trace_id});
}

void Agent::note_timeouts(const Pending& pending) {
  if (tuning_.max_child_timeouts <= 0 || pending.asked->sorted.empty()) return;
  bool evicted = false;
  for (auto it = children_.begin(); it != children_.end();) {
    Child& child = *it;
    if (!std::binary_search(pending.asked->sorted.begin(),
                            pending.asked->sorted.end(), child.endpoint)) {
      ++it;
      continue;
    }
    if (std::binary_search(pending.answered.begin(), pending.answered.end(),
                           child.endpoint)) {
      child.consecutive_timeouts = 0;
      ++it;
      continue;
    }
    if (++child.consecutive_timeouts >= tuning_.max_child_timeouts) {
      GC_WARN << "agent " << name_ << ": evicting unresponsive child "
              << child.name;
      if (child.is_sed) drop_sed_replicas(child.sed_uid);
      it = children_.erase(it);
      evicted = true;
    } else {
      ++it;
    }
  }
  if (evicted) {
    children_changed();
    // Recompute the service union and tell the parent.
    services_.clear();
    for (const auto& child : children_) {
      services_.insert(child.services.begin(), child.services.end());
    }
    propagate_services();
  }
}

void Agent::update_catalog_gauge() {
  if (!obs::metrics_on()) return;
  auto& m = obs::Metrics::instance();
  const obs::Labels labels = {{"agent", name_}};
  m.gauge("diet_dtm_catalog_entries", labels)
      .set(static_cast<double>(catalog_.entry_count()));
  m.gauge("diet_dtm_catalog_replicas", labels)
      .set(static_cast<double>(catalog_.replica_count()));
}

void Agent::drop_sed_replicas(std::uint64_t sed_uid) {
  if (sed_uid == 0) return;
  const std::vector<std::string> dropped = catalog_.drop_sed(sed_uid);
  if (dropped.empty()) return;
  update_catalog_gauge();
  if (parent_ == net::kNullEndpoint) return;
  dtm::DataUnregisterMsg msg;
  msg.sed_uid = sed_uid;
  // Empty data_id = "drop everything this SED held" — one message no
  // matter how many replicas died with the SED.
  env()->send(net::Envelope{endpoint(), parent_, dtm::kDataUnregister,
                            msg.encode(), 0});
}

void Agent::handle_data_register(const net::Envelope& envelope) {
  const dtm::DataRegisterMsg msg = dtm::DataRegisterMsg::decode(
      envelope.payload);
  catalog_.add(msg.data_id, msg.holder);
  update_catalog_gauge();
  // Write-replication: the holder's direct parent picks the extra homes.
  // Only the agent that has the holder as a direct SED child fans out, so
  // a forwarded registration never cascades into more copies.
  if (msg.replicas > 1) {
    bool direct_parent = false;
    for (const auto& child : children_) {
      if (child.is_sed && child.sed_uid == msg.holder.sed_uid) {
        direct_parent = true;
        break;
      }
    }
    if (direct_parent) {
      int wanted = msg.replicas - 1;
      // children_ keeps registration order: the target choice is part of
      // the deterministic schedule.
      for (const auto& child : children_) {
        if (wanted <= 0) break;
        if (!child.is_sed || !child.alive) continue;
        if (child.sed_uid == msg.holder.sed_uid) continue;
        if (catalog_.holds(msg.data_id, child.sed_uid)) continue;
        dtm::DataReplicateMsg rep;
        rep.data_id = msg.data_id;
        rep.holder = msg.holder;
        env()->send(net::Envelope{endpoint(), child.endpoint,
                                  dtm::kDataReplicate, rep.encode(), 0,
                                  envelope.trace_id});
        --wanted;
      }
    }
  }
  if (parent_ != net::kNullEndpoint) {
    dtm::DataRegisterMsg up = msg;
    up.replicas = 1;  // replication is the direct parent's job alone
    env()->send(net::Envelope{endpoint(), parent_, dtm::kDataRegister,
                              up.encode(), 0, envelope.trace_id});
  }
}

void Agent::handle_data_unregister(const net::Envelope& envelope) {
  const dtm::DataUnregisterMsg msg = dtm::DataUnregisterMsg::decode(
      envelope.payload);
  if (msg.data_id.empty()) {
    catalog_.drop_sed(msg.sed_uid);
  } else {
    catalog_.remove(msg.data_id, msg.sed_uid);
  }
  update_catalog_gauge();
  if (parent_ != net::kNullEndpoint) {
    env()->send(net::Envelope{endpoint(), parent_, dtm::kDataUnregister,
                              envelope.payload, 0, envelope.trace_id});
  }
}

void Agent::handle_data_locate(const net::Envelope& envelope) {
  const dtm::DataLocateMsg msg = dtm::DataLocateMsg::decode(envelope.payload);
  const auto* replicas = catalog_.locate(msg.data_id);
  dtm::DataLocationMsg answer;
  answer.data_id = msg.data_id;
  if (replicas != nullptr) {
    for (const auto& [uid, info] : *replicas) {
      if (uid == msg.requester_uid) continue;
      answer.replicas.push_back(info);
    }
  }
  if (!answer.replicas.empty()) {
    // Answer straight to the requesting SED — the reply does not retrace
    // the locate's path down the tree.
    env()->send(net::Envelope{endpoint(), msg.requester_endpoint,
                              dtm::kDataLocation, answer.encode(), 0,
                              envelope.trace_id});
    return;
  }
  if (parent_ != net::kNullEndpoint) {
    env()->send(net::Envelope{endpoint(), parent_, dtm::kDataLocate,
                              envelope.payload, 0, envelope.trace_id});
    return;
  }
  // Root with no replica. A locate that already crossed a federation edge
  // ends here: a miss stays silent (another shard — or nobody — answers;
  // the requester's fetch timeout is the miss path). Locates that
  // originated in this hierarchy cross the edge once before giving up.
  if (msg.federated) return;
  if (kind_ == Kind::kMaster && !peers_.empty()) {
    dtm::DataLocateMsg forwarded = msg;
    forwarded.federated = true;
    const net::Bytes payload = forwarded.encode();
    bool asked_any = false;
    for (const auto& peer : peers_) {
      if (!peer.alive) continue;
      env()->send(net::Envelope{endpoint(), peer.endpoint, dtm::kDataLocate,
                                payload, 0, envelope.trace_id});
      asked_any = true;
    }
    // A peer with replicas answers the requester directly; an all-miss
    // surfaces as the requester's fetch timeout. Either way this MA's
    // empty answer must NOT race ahead and kill the fetch early.
    if (asked_any) return;
  }
  // Truly final: nobody in the (unfederated or peer-less) hierarchy holds
  // the id; the empty answer makes the SED fail the fetch immediately.
  env()->send(net::Envelope{endpoint(), msg.requester_endpoint,
                            dtm::kDataLocation, answer.encode(), 0,
                            envelope.trace_id});
}

void Agent::fill_locality(Pending& pending) {
  if (pending.deps.empty()) return;
  for (auto& candidate : pending.candidates) {
    double bytes = 0.0;
    double xfer = 0.0;
    const net::NodeId cand_node = env()->node_of(candidate.sed_endpoint);
    for (const auto& dep : pending.deps) {
      const auto* replicas = catalog_.locate(dep.data_id);
      // Deps nobody holds cost every candidate the same (a client push)
      // and deps the candidate itself holds cost nothing: neither adds
      // to the bytes-to-move term.
      if (replicas == nullptr || replicas->empty()) continue;
      if (replicas->count(candidate.sed_uid) > 0) continue;
      bytes += static_cast<double>(dep.bytes);
      double best = -1.0;
      for (const auto& [uid, info] : *replicas) {
        // Contention-aware when the flow model is on: mct-data ranks a
        // candidate behind a congested path below one with idle links.
        const double t =
            env()->estimate_transfer_s(info.node, cand_node, dep.bytes);
        if (best < 0.0 || t < best) best = t;
      }
      if (best > 0.0) xfer += best;
    }
    candidate.est.data_bytes_to_move = bytes;
    candidate.est.data_xfer_s = xfer;
  }
}

void Agent::handle_job_done(const net::Envelope& envelope) {
  const JobDoneMsg msg = JobDoneMsg::decode(envelope.payload);
  if (kind_ == Kind::kMaster) {
    auto it = outstanding_.find(msg.sed_uid);
    if (it != outstanding_.end() && it->second > 0.0) it->second -= 1.0;
    // Federation: assignments cross shards, so completions must too. The
    // MA that hears a done from its own hierarchy relays it to every peer
    // (each decrements its own outstanding_ if it ever assigned that SED);
    // a relayed done — sender is a peer — is never re-relayed.
    if (!peers_.empty() && find_peer(envelope.from) == nullptr) {
      for (const auto& peer : peers_) {
        if (!peer.alive) continue;
        env()->send(net::Envelope{endpoint(), peer.endpoint, kJobDone,
                                  envelope.payload, 0, envelope.trace_id});
      }
    }
    return;
  }
  if (parent_ != net::kNullEndpoint) {
    env()->send(net::Envelope{endpoint(), parent_, kJobDone, envelope.payload,
                              0, envelope.trace_id});
  }
}

}  // namespace gc::diet
