#include "diet/client.hpp"

#include <cmath>
#include <utility>

#include "check/mutation.hpp"
#include "common/log.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace gc::diet {

namespace {

/// Assigns content-derived ids to persistent arguments that lack one and
/// lists the unique (id, bytes) pairs as the request's data deps — the
/// volume agents price against their replica catalogs. Volatile-only
/// profiles return an empty list, keeping their wire encoding unchanged.
std::vector<DataDep> declare_deps(Profile& profile) {
  std::vector<DataDep> deps;
  std::set<std::string> seen;
  for (int i = 0; i <= profile.last_inout(); ++i) {
    ArgValue& arg = profile.arg(i);
    if (!arg.has_value() ||
        arg.desc.persistence == Persistence::kVolatile) {
      continue;
    }
    if (arg.data_id().empty() && !arg.is_reference()) {
      arg.set_data_id(arg.content_id());
    }
    if (arg.data_id().empty()) continue;
    if (!seen.insert(arg.data_id()).second) continue;
    deps.push_back(DataDep{arg.data_id(), arg.wire_bytes()});
  }
  return deps;
}

}  // namespace

std::uint64_t Client::call_async(Profile profile, DoneFn done,
                                 double deadline_s) {
  GC_CHECK_MSG(ma_ != net::kNullEndpoint, "client not connected to an MA");
  const std::uint64_t id = next_id_.fetch_add(1);
  // The call enters the client through a zero-delay hand-off event, also
  // when call_async runs outside any handler (the C API's client code):
  // every pinned event schedule includes it. Submissions serialize behind
  // the client's marshalling work, in call-id order: a burst of hand-off
  // events lands at one timestamp, and a schedule strategy may run
  // logically-concurrent events in any order, so the queue below (not
  // event order) decides who marshals first.
  env()->post_after_as(endpoint(), 0.0,
                       [this, id, profile = std::move(profile),
                          done = std::move(done), deadline_s]() mutable {
    queued_submissions_.emplace(
        id, QueuedSubmission{std::move(profile), std::move(done), deadline_s});
    drain_submissions();
  });
  return id;
}

void Client::drain_submissions() {
  while (true) {
    auto it = queued_submissions_.find(next_submission_);
    if (it == queued_submissions_.end()) return;
    QueuedSubmission q = std::move(it->second);
    queued_submissions_.erase(it);
    const std::uint64_t id = next_submission_++;
    const double now = env()->now();
    submit_busy_until_ =
        std::max(submit_busy_until_, now) + tuning_.submit_marshalling;
    env()->post_after(submit_busy_until_ - now,
                      [this, id, profile = std::move(q.profile),
                       done = std::move(q.done),
                       deadline_s = q.deadline_s]() mutable {
                        submit(id, std::move(profile), std::move(done),
                               deadline_s);
                      });
  }
}

void Client::submit(std::uint64_t id, Profile profile, DoneFn done,
                    double deadline_s) {
  CallRecord record;
  record.id = id;
  record.service = profile.path();
  record.submitted = env()->now();
  record_of_[id] = records_.size();
  records_.push_back(record);

  RequestSubmitMsg msg;
  msg.client_request_id = id;
  msg.desc = profile.desc();
  msg.in_bytes = profile.in_bytes();
  msg.deps = declare_deps(profile);

  net::TimerId deadline_timer = 0;
  if (deadline_s > 0.0) {
    deadline_timer = env()->post_after(deadline_s, [this, id]() {
      if (pending_.count(id) == 0) return;  // completed in time
      GC_WARN << "client " << name_ << ": call " << id
              << " exceeded its deadline";
      complete(id, make_error(ErrorCode::kUnavailable,
                              "call deadline exceeded"));
    });
  }
  PendingCall call;
  call.profile = std::move(profile);
  call.done = std::move(done);
  call.record_index = records_.size() - 1;
  call.deadline_timer = deadline_timer;
  if (obs::tracing()) {
    // The client request id doubles as the trace id: unique per call and
    // deterministic under the DES. Every hop of the request chain below
    // (submit -> collect -> reply -> data -> solve -> result) stamps it on
    // its envelopes.
    auto& tracer = obs::Tracer::instance();
    const std::string track = "client:" + name_;
    call.call_span =
        tracer.begin_span(env()->now(), "call:" + record.service, track, id);
    call.find_span = tracer.begin_span(env()->now(), "finding", track, id,
                                       call.call_span);
  }
  if (obs::metrics_on()) {
    obs::Metrics::instance()
        .counter("diet_client_calls_total", {{"client", name_}})
        .inc();
  }
  call.wire_id = id;  // attempt 1 travels under the call id itself
  wire_to_call_[id] = id;
  pending_.emplace(id, std::move(call));
  env()->send(
      net::Envelope{endpoint(), ma_, kRequestSubmit, msg.encode(), 0, id});
  arm_attempt_timer(id);
}

void Client::arm_attempt_timer(std::uint64_t call_id) {
  if (tuning_.attempt_timeout_s <= 0.0) return;
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  const std::uint64_t wire_id = it->second.wire_id;
  it->second.attempt_timer =
      env()->post_after(tuning_.attempt_timeout_s, [this, call_id, wire_id]() {
        auto it = pending_.find(call_id);
        // Only the attempt that armed this timer may act on it.
        if (it == pending_.end() || it->second.wire_id != wire_id) return;
        it->second.attempt_timer = 0;
        retry_or_fail(call_id, "no result within the attempt timeout");
      });
}

void Client::retry_or_fail(std::uint64_t call_id, const std::string& reason) {
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  if (call.attempt_timer != 0) {
    env()->cancel_timer(call.attempt_timer);
    call.attempt_timer = 0;
  }
  if (call.attempt >= tuning_.max_attempts) {
    complete(call_id,
             make_error(ErrorCode::kUnavailable,
                        "call failed after " + std::to_string(call.attempt) +
                            " attempts: " + reason));
    return;
  }
  const double backoff =
      tuning_.backoff_base_s *
      std::pow(tuning_.backoff_mult, static_cast<double>(call.attempt - 1));
  ++call.attempt;
  GC_WARN << "client " << name_ << ": call " << call_id << " attempt "
          << call.attempt - 1 << " failed (" << reason << "); retrying in "
          << backoff << "s";
  if (obs::metrics_on()) {
    obs::Metrics::instance()
        .counter("diet_client_retries_total", {{"client", name_}})
        .inc();
  }
  if (obs::tracing()) {
    obs::Tracer::instance().instant(env()->now(),
                                    "retry:" + std::to_string(call_id),
                                    "client:" + name_, call_id);
  }
  const int attempt = call.attempt;
  env()->post_after(backoff, [this, call_id, attempt]() {
    auto it = pending_.find(call_id);
    if (it == pending_.end() || it->second.attempt != attempt) return;
    start_attempt(call_id);
  });
}

void Client::start_attempt(std::uint64_t call_id) {
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  PendingCall& call = it->second;
  wire_to_call_.erase(call.wire_id);
  // Fresh wire id: whatever the previous attempt still has in flight
  // (a late reply, a duplicate result) can no longer resolve to us.
  // Mutation seam kStaleReplyReuseWire re-introduces the fixed bug of
  // retrying under the old id — the SED's dedup journal then swallows a
  // retry that lands on the SED that already ran the lost attempt.
  if (!check::mutation_enabled(check::Mutation::kStaleReplyReuseWire)) {
    // The id base keeps retry wires disjoint across clients too — the
    // SED's at-most-once journal is keyed by wire id alone.
    call.wire_id = 0x8000000000000000ULL | id_base_ | ++next_retry_wire_;
  }
  wire_to_call_[call.wire_id] = call_id;
  call.reply_seen = false;
  call.resent_full = false;
  call_sed_.erase(call_id);

  RequestSubmitMsg msg;
  msg.client_request_id = call.wire_id;
  msg.desc = call.profile.desc();
  msg.in_bytes = call.profile.in_bytes();
  msg.deps = declare_deps(call.profile);
  env()->send(net::Envelope{endpoint(), ma_, kRequestSubmit, msg.encode(), 0,
                            call_id});
  arm_attempt_timer(call_id);
}

void Client::on_message(const net::Envelope& envelope) {
  switch (envelope.type) {
    case kRequestReply:
      handle_reply(envelope);
      break;
    case kCallStarted:
      handle_started(envelope);
      break;
    case kCallResult:
      handle_result(envelope);
      break;
    default:
      GC_WARN << "client " << name_ << ": unexpected message type "
              << envelope.type;
  }
}

void Client::handle_reply(const net::Envelope& envelope) {
  const RequestReplyMsg msg = RequestReplyMsg::decode(envelope.payload);
  auto wire_it = wire_to_call_.find(msg.client_request_id);
  if (wire_it == wire_to_call_.end()) return;  // superseded attempt
  const std::uint64_t call_id = wire_it->second;
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  if (it->second.reply_seen) return;  // duplicated reply
  it->second.reply_seen = true;
  CallRecord& record = records_[it->second.record_index];
  record.found = env()->now();
  obs::Tracer::instance().end_span(it->second.find_span, env()->now());
  it->second.find_span = 0;
  if (obs::metrics_on()) {
    obs::Metrics::instance()
        .histogram("diet_finding_time_seconds", obs::latency_buckets_s())
        .observe(record.finding_time());
  }

  if (!msg.found) {
    // More attempts in the budget: back off and re-ask (the hierarchy may
    // be mid-eviction, or a partition may heal). Otherwise fail exactly
    // like the single-shot client always has.
    if (it->second.attempt < tuning_.max_attempts) {
      retry_or_fail(call_id, "no server can solve " + record.service);
      return;
    }
    complete(call_id, make_error(ErrorCode::kUnavailable,
                                 "no server can solve " + record.service));
    return;
  }
  record.sed_uid = msg.chosen.sed_uid;
  record.sed_name = msg.chosen.sed_name;
  it->second.sed_uid = msg.chosen.sed_uid;
  it->second.available.clear();
  it->second.available.insert(msg.available_ids.begin(),
                              msg.available_ids.end());
  call_sed_[call_id] = msg.chosen.sed_endpoint;

  send_call_data(call_id, msg.chosen.sed_endpoint, msg.chosen.sed_uid,
                 /*force_full=*/false);
}

void Client::send_call_data(std::uint64_t id, net::Endpoint sed,
                            std::uint64_t sed_uid, bool force_full) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Profile& profile = it->second.profile;

  // Assign content-derived data ids to persistent arguments (DIET's DTM
  // naming) so the SED can store and later resolve them.
  for (int i = 0; i <= profile.last_inout(); ++i) {
    ArgValue& arg = profile.arg(i);
    if (arg.has_value() && !arg.is_reference() &&
        arg.desc.persistence != Persistence::kVolatile &&
        arg.data_id().empty()) {
      arg.set_data_id(arg.content_id());
    }
  }

  // Ship the IN/INOUT data to the chosen SED (the "computing phase" hand-
  // off of Section 2.2); arguments this SED is known to hold — or that
  // the MA's catalog resolved to a replica the SED can pull from a peer —
  // travel as references. Location is registered at *send* time: per-
  // destination delivery is FIFO, so a later reference can never overtake
  // the data it refers to (and the missing-data retry is the safety net
  // regardless).
  Profile wire = profile;
  auto& known = known_at_[sed_uid];
  const std::set<std::string>& available = it->second.available;
  std::int64_t bytes_saved = 0;
  for (int i = 0; i <= wire.last_inout(); ++i) {
    ArgValue& arg = wire.arg(i);
    if (!arg.has_value() || arg.data_id().empty() ||
        arg.desc.persistence == Persistence::kVolatile) {
      continue;
    }
    if (!force_full && (known.count(arg.data_id()) > 0 ||
                        available.count(arg.data_id()) > 0)) {
      const std::int64_t full = arg.wire_bytes();
      arg.make_reference();
      bytes_saved += std::max<std::int64_t>(0, full - arg.wire_bytes());
    } else {
      known.insert(arg.data_id());
    }
  }
  if (bytes_saved > 0 && obs::metrics_on()) {
    // Per-link: the bytes a reference kept off the client -> SED path.
    const std::string link = "n" + std::to_string(node()) + "->n" +
                             std::to_string(env()->node_of(sed));
    obs::Metrics::instance()
        .counter("diet_dtm_bytes_saved_total",
                 {{"client", name_}, {"link", link}})
        .inc(static_cast<std::uint64_t>(bytes_saved));
  }

  CallDataMsg data;
  data.call_id = it->second.wire_id;  // == id on attempt 1
  data.path = wire.path();
  data.last_in = wire.last_in();
  data.last_inout = wire.last_inout();
  data.last_out = wire.last_out();
  net::Writer w;
  wire.serialize_inputs(w);
  data.inputs = w.take();
  env()->send(net::Envelope{endpoint(), sed, kCallData, data.encode(),
                            wire.in_file_bytes(), id});
}

void Client::handle_started(const net::Envelope& envelope) {
  const CallStartedMsg msg = CallStartedMsg::decode(envelope.payload);
  auto wire_it = wire_to_call_.find(msg.call_id);
  if (wire_it == wire_to_call_.end()) return;  // superseded attempt
  auto it = record_of_.find(wire_it->second);
  if (it == record_of_.end()) return;
  records_[it->second].started = env()->now();
}

void Client::handle_result(const net::Envelope& envelope) {
  const CallResultMsg msg = CallResultMsg::decode(envelope.payload);
  auto wire_it = wire_to_call_.find(msg.call_id);
  if (wire_it == wire_to_call_.end()) return;  // superseded attempt
  const std::uint64_t call_id = wire_it->second;
  auto it = pending_.find(call_id);
  if (it == pending_.end()) return;

  // Persistent-data miss: the SED no longer holds a referenced value
  // (evicted, crashed-and-restarted, or our cache was stale). Resend the
  // full data once per attempt.
  if (msg.solve_status == kMissingDataStatus && !it->second.resent_full) {
    GC_WARN << "client " << name_ << ": call " << call_id
            << " hit a persistent-data miss; resending full data";
    it->second.resent_full = true;
    known_at_[it->second.sed_uid].clear();
    auto sed_it = call_sed_.find(call_id);
    if (sed_it != call_sed_.end()) {
      send_call_data(call_id, sed_it->second, it->second.sed_uid,
                     /*force_full=*/true);
      return;
    }
  }

  CallRecord& record = records_[it->second.record_index];
  record.completed = env()->now();
  record.solve_status = msg.solve_status;

  net::Reader r(msg.outputs);
  it->second.profile.merge_outputs(r);

  // PERSISTENT OUT data came home as a reference: the value stayed on the
  // SED (and in the hierarchy catalog). Remember who holds it so a later
  // call can ship the id instead of the bytes.
  Profile& out_profile = it->second.profile;
  for (int i = out_profile.last_inout() + 1; i < out_profile.arg_count();
       ++i) {
    const ArgValue& arg = out_profile.arg(i);
    if (arg.is_reference() && !arg.data_id().empty()) {
      known_at_[it->second.sed_uid].insert(arg.data_id());
    }
  }

  if (msg.solve_status != 0) {
    complete(call_id, make_error(ErrorCode::kInternal,
                                 "solve function returned " +
                                     std::to_string(msg.solve_status)));
    return;
  }
  record.ok = true;
  complete(call_id, Status::ok());
}

void Client::complete(std::uint64_t id, const gc::Status& status) {
  auto it = pending_.find(id);
  GC_CHECK(it != pending_.end());
  PendingCall call = std::move(it->second);
  pending_.erase(it);
  call_sed_.erase(id);
  wire_to_call_.erase(call.wire_id);
  if (call.deadline_timer != 0) env()->cancel_timer(call.deadline_timer);
  if (call.attempt_timer != 0) env()->cancel_timer(call.attempt_timer);
  auto& tracer = obs::Tracer::instance();
  tracer.end_span(call.find_span, env()->now());  // no-reply failure paths
  if (call.call_span != 0) {
    tracer.span_arg(call.call_span, "status",
                    status.is_ok() ? "ok" : status.to_string());
    tracer.end_span(call.call_span, env()->now());
  }
  if (obs::metrics_on()) {
    const CallRecord& record = records_[call.record_index];
    if (record.completed >= 0.0 && record.submitted >= 0.0) {
      obs::Metrics::instance()
          .histogram("diet_call_total_seconds", obs::duration_buckets_s())
          .observe(record.total_time());
    }
  }
  if (obs::journal_on()) {
    const CallRecord& record = records_[call.record_index];
    obs::RequestRecord entry;
    entry.trace_id = id;
    entry.service = record.service;
    entry.client = name_;
    entry.sed = record.sed_name;  // path above the SED resolves at export
    entry.attempts = call.attempt;
    entry.status = status.is_ok() ? "ok" : status.to_string();
    entry.submitted = record.submitted;
    entry.found = record.found;
    // completed is only stamped on a kCallResult; failures (deadline,
    // no-SED) close the record at the moment the call was abandoned.
    entry.completed =
        record.completed >= 0.0 ? record.completed : env()->now();
    obs::Journal::instance().complete(std::move(entry));
  }
  if (call.done) call.done(status, call.profile);
}

}  // namespace gc::diet
