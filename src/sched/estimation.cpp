#include "sched/estimation.hpp"

#include <algorithm>

namespace gc::sched {

void Estimation::serialize(net::Writer& w) const {
  w.f64(timestamp);
  w.f64(host_power);
  w.i32(machines);
  w.f64(queue_length);
  w.f64(queued_work_s);
  w.f64(free_cpu);
  w.f64(free_mem_mb);
  w.f64(service_comp_s);
  w.u64(jobs_completed);
  w.f64(agent_assigned);
}

Estimation Estimation::deserialize(net::Reader& r) {
  Estimation e;
  e.timestamp = r.f64();
  e.host_power = r.f64();
  e.machines = r.i32();
  e.queue_length = r.f64();
  e.queued_work_s = r.f64();
  e.free_cpu = r.f64();
  e.free_mem_mb = r.f64();
  e.service_comp_s = r.f64();
  e.jobs_completed = r.u64();
  e.agent_assigned = r.f64();
  return e;
}

void Candidate::serialize(net::Writer& w) const {
  w.u64(sed_uid);
  w.u32(sed_endpoint);
  w.str(sed_name);
  est.serialize(w);
}

Candidate Candidate::deserialize(net::Reader& r) {
  Candidate c;
  c.sed_uid = r.u64();
  c.sed_endpoint = r.u32();
  c.sed_name = r.str();
  c.est = Estimation::deserialize(r);
  return c;
}

std::size_t candidates_wire_size(std::span<const Candidate> c) {
  std::size_t bytes = 4;
  for (const auto& candidate : c) bytes += candidate.wire_size();
  return bytes;
}

void serialize_candidates(net::Writer& w, std::span<const Candidate> c) {
  w.u32(static_cast<std::uint32_t>(c.size()));
  for (const auto& candidate : c) candidate.serialize(w);
}

std::size_t append_candidates(net::Reader& r, std::vector<Candidate>& out) {
  const std::uint32_t n = r.u32();
  // Reserve only into an empty list (a caller filling one list from many
  // replies sizes it itself), and never past what the remaining bytes can
  // hold: a corrupt count then just runs the reader dry.
  if (out.empty()) {
    out.reserve(std::min<std::size_t>(
        n, r.remaining() / Candidate::kMinWireBytes));
  }
  const std::size_t before = out.size();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    out.push_back(Candidate::deserialize(r));
  }
  return out.size() - before;
}

std::vector<Candidate> deserialize_candidates(net::Reader& r) {
  std::vector<Candidate> out;
  append_candidates(r, out);
  return out;
}

}  // namespace gc::sched
