#include "diet/protocol.hpp"

namespace gc::diet {

namespace {

net::Bytes finish(net::Writer& w) { return w.take(); }

// Dep lists are trailing-optional: written only when non-empty, decoded
// only when bytes remain. A message without persistent inputs therefore
// encodes exactly as it did before the data-management subsystem existed,
// which keeps fault-free volatile runs byte-identical.
void encode_deps(net::Writer& w, const std::vector<DataDep>& deps) {
  if (deps.empty()) return;
  w.u32(static_cast<std::uint32_t>(deps.size()));
  for (const auto& dep : deps) {
    w.str(dep.data_id);
    w.i64(dep.bytes);
  }
}

std::vector<DataDep> decode_deps(net::Reader& r) {
  std::vector<DataDep> deps;
  if (r.remaining() == 0) return deps;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    DataDep dep;
    dep.data_id = r.str();
    dep.bytes = r.i64();
    deps.push_back(std::move(dep));
  }
  return deps;
}

}  // namespace

net::Bytes SedRegisterMsg::encode() const {
  net::Writer w;
  w.u64(sed_uid);
  w.str(name);
  w.f64(host_power);
  w.i32(machines);
  w.u32(static_cast<std::uint32_t>(services.size()));
  for (const auto& s : services) s.serialize(w);
  return finish(w);
}

SedRegisterMsg SedRegisterMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  SedRegisterMsg m;
  m.sed_uid = r.u64();
  m.name = r.str();
  m.host_power = r.f64();
  m.machines = r.i32();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    m.services.push_back(ProfileDesc::deserialize(r));
  }
  return m;
}

net::Bytes AgentRegisterMsg::encode() const {
  net::Writer w;
  w.str(name);
  w.u32(static_cast<std::uint32_t>(services.size()));
  for (const auto& s : services) w.str(s);
  return finish(w);
}

AgentRegisterMsg AgentRegisterMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  AgentRegisterMsg m;
  m.name = r.str();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) m.services.push_back(r.str());
  return m;
}

net::Bytes RequestSubmitMsg::encode() const {
  net::Writer w;
  w.u64(client_request_id);
  desc.serialize(w);
  w.i64(in_bytes);
  encode_deps(w, deps);
  return finish(w);
}

RequestSubmitMsg RequestSubmitMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  RequestSubmitMsg m;
  m.client_request_id = r.u64();
  m.desc = ProfileDesc::deserialize(r);
  m.in_bytes = r.i64();
  m.deps = decode_deps(r);
  return m;
}

net::Bytes RequestCollectMsg::encode() const {
  net::Writer w;
  w.u64(request_key);
  desc.serialize(w);
  w.i64(in_bytes);
  w.f64(timeout_s);
  // The federation section is trailing-optional as a unit. Intra-hierarchy
  // collects (origin/ttl both zero) keep the exact pre-federation bytes;
  // federated ones always write the dep count — even 0 — so the decoder
  // can tell "empty deps + federation section" from "deps only".
  if (origin_uid == 0 && ttl == 0) {
    encode_deps(w, deps);
  } else {
    w.u32(static_cast<std::uint32_t>(deps.size()));
    for (const auto& dep : deps) {
      w.str(dep.data_id);
      w.i64(dep.bytes);
    }
    w.u32(origin_uid);
    w.u32(ttl);
  }
  return finish(w);
}

RequestCollectMsg RequestCollectMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  RequestCollectMsg m;
  m.request_key = r.u64();
  m.desc = ProfileDesc::deserialize(r);
  m.in_bytes = r.i64();
  m.timeout_s = r.f64();
  m.deps = decode_deps(r);
  if (r.remaining() >= 8) {
    m.origin_uid = r.u32();
    m.ttl = r.u32();
  }
  return m;
}

net::Bytes CandidatesMsg::encode() const {
  net::Writer w;
  w.u64(request_key);
  sched::serialize_candidates(w, candidates);
  return finish(w);
}

CandidatesMsg CandidatesMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  CandidatesMsg m;
  m.request_key = r.u64();
  m.candidates = sched::deserialize_candidates(r);
  return m;
}

net::Bytes RequestReplyMsg::encode() const {
  net::Writer w;
  w.u64(client_request_id);
  w.u8(found ? 1 : 0);
  if (found) chosen.serialize(w);
  // Trailing-optional, like the dep lists: absent when empty.
  if (!available_ids.empty()) {
    w.u32(static_cast<std::uint32_t>(available_ids.size()));
    for (const auto& id : available_ids) w.str(id);
  }
  return finish(w);
}

RequestReplyMsg RequestReplyMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  RequestReplyMsg m;
  m.client_request_id = r.u64();
  m.found = r.u8() != 0;
  if (m.found) m.chosen = sched::Candidate::deserialize(r);
  if (r.remaining() > 0) {
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      m.available_ids.push_back(r.str());
    }
  }
  return m;
}

net::Bytes CallDataMsg::encode() const {
  net::Writer w;
  w.u64(call_id);
  w.str(path);
  w.i32(last_in);
  w.i32(last_inout);
  w.i32(last_out);
  w.bytes(inputs);
  return finish(w);
}

CallDataMsg CallDataMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  CallDataMsg m;
  m.call_id = r.u64();
  m.path = r.str();
  m.last_in = r.i32();
  m.last_inout = r.i32();
  m.last_out = r.i32();
  m.inputs = r.bytes();
  return m;
}

net::Bytes CallStartedMsg::encode() const {
  net::Writer w;
  w.u64(call_id);
  return finish(w);
}

CallStartedMsg CallStartedMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  CallStartedMsg m;
  m.call_id = r.u64();
  return m;
}

net::Bytes CallResultMsg::encode() const {
  net::Writer w;
  w.u64(call_id);
  w.i32(solve_status);
  w.bytes(outputs);
  return finish(w);
}

CallResultMsg CallResultMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  CallResultMsg m;
  m.call_id = r.u64();
  m.solve_status = r.i32();
  m.outputs = r.bytes();
  return m;
}

net::Bytes JobDoneMsg::encode() const {
  net::Writer w;
  w.u64(sed_uid);
  w.u64(call_id);
  w.f64(busy_seconds);
  return finish(w);
}

JobDoneMsg JobDoneMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  JobDoneMsg m;
  m.sed_uid = r.u64();
  m.call_id = r.u64();
  m.busy_seconds = r.f64();
  return m;
}

net::Bytes HeartbeatMsg::encode() const {
  net::Writer w;
  w.u64(uid);
  w.u64(seq);
  return finish(w);
}

HeartbeatMsg HeartbeatMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  HeartbeatMsg m;
  m.uid = r.u64();
  m.seq = r.u64();
  return m;
}

net::Bytes PeerAnnounceMsg::encode() const {
  net::Writer w;
  w.u32(ma_uid);
  w.str(name);
  w.u32(static_cast<std::uint32_t>(services.size()));
  for (const auto& s : services) w.str(s);
  return finish(w);
}

PeerAnnounceMsg PeerAnnounceMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  PeerAnnounceMsg m;
  m.ma_uid = r.u32();
  m.name = r.str();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) m.services.push_back(r.str());
  return m;
}

net::Bytes PeerCandidatesMsg::encode() const {
  net::Writer w;
  w.u64(request_key);
  w.u32(ma_uid);
  sched::serialize_candidates(w, candidates);
  return finish(w);
}

PeerCandidatesMsg PeerCandidatesMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  PeerCandidatesMsg m;
  m.request_key = r.u64();
  m.ma_uid = r.u32();
  m.candidates = sched::deserialize_candidates(r);
  return m;
}

}  // namespace gc::diet
