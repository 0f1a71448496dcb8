#include "net/realenv.hpp"

#include <utility>

#include "check/lockorder.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace gc::net {

// gclint: allow-file(wallclock) RealEnv IS the wall-clock backend; the
// Env abstraction keeps it out of simulated code paths.
// gclint: allow-file(thread) the dispatcher/worker threads are this
// backend's reason to exist; everything else must go through parallel/.

using Clock = std::chrono::steady_clock;

/// Lock-order role of mutex_ (see check::LockOrderRecorder).
constexpr const char* kLockName = "realenv.mutex";

RealEnv::RealEnv(const Topology& topology, double delay_scale)
    : Env(topology), delay_scale_(delay_scale), origin_(Clock::now()) {}

RealEnv::~RealEnv() { stop(); }

SimTime RealEnv::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

void RealEnv::start() {
  {
    GC_TRACKED_LOCK(lock, mutex_, kLockName);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
    stopped_ = false;
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
  }
  // Wall-clock runs have no virtual calendar to hang sampling ticks on;
  // the sampler brings its own thread. No-op when time series are off.
  obs::TimeSeries::instance().start_wall_sampler();
}

void RealEnv::stop() {
  {
    check::LockTracker tracker(kLockName, __FILE__, __LINE__);
    std::unique_lock<std::mutex> lock(mutex_);
    if (!running_) return;
    idle_cv_.wait(lock,
                  [this] { return live_queued() == 0 && in_flight_ == 0; });
    stop_requested_ = true;
    cv_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  std::vector<std::thread> workers;
  {
    GC_TRACKED_LOCK(lock, mutex_, kLockName);
    workers.swap(workers_);
    running_ = false;
    stopped_ = true;
  }
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
  obs::TimeSeries::instance().stop_wall_sampler();
}

void RealEnv::wait_idle() {
  check::LockTracker tracker(kLockName, __FILE__, __LINE__);
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock,
                [this] { return live_queued() == 0 && in_flight_ == 0; });
}

TimerId RealEnv::enqueue(SimTime deadline, des::EventFn fn) {
  GC_TRACKED_LOCK(lock, mutex_, kLockName);
  GC_INVARIANT(!stopped_, "post/send after RealEnv::stop() completed");
  const std::uint64_t seq = next_seq_++;
  queue_.push(Timed{deadline, seq, std::move(fn)});
  queued_ids_.insert(seq);
  cv_.notify_all();
  return seq;
}

TimerId RealEnv::post_after(SimTime delay, des::EventFn fn) {
  GC_CHECK_MSG(delay >= 0.0, "negative delay");
  if (obs::metrics_on()) {
    obs::Metrics::instance().counter("net_timers_total").inc();
  }
  return enqueue(now() + delay, std::move(fn));
}

bool RealEnv::cancel_timer(TimerId id) {
  GC_TRACKED_LOCK(lock, mutex_, kLockName);
  if (queued_ids_.count(id) == 0 || cancelled_.count(id) > 0) return false;
  cancelled_.insert(id);
  cv_.notify_all();  // the dispatcher may now be idle
  idle_cv_.notify_all();
  return true;
}

Endpoint RealEnv::do_attach(Actor& actor, NodeId node) {
  GC_TRACKED_LOCK(lock, mutex_, kLockName);
  const Endpoint ep = next_endpoint_++;
  actors_.emplace(ep, Entry{&actor, node});
  return ep;
}

void RealEnv::detach(Endpoint endpoint) {
  GC_TRACKED_LOCK(lock, mutex_, kLockName);
  actors_.erase(endpoint);
}

void RealEnv::send(Envelope envelope) {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t stream_seq = 0;
  {
    GC_TRACKED_LOCK(lock, mutex_, kLockName);
    auto to_it = actors_.find(envelope.to);
    if (to_it == actors_.end()) {
      GC_WARN << "realenv: dropping message type " << envelope.type
              << " to unknown endpoint " << envelope.to;
      return;
    }
    dst = to_it->second.node;
    auto from_it = actors_.find(envelope.from);
    src = from_it != actors_.end() ? from_it->second.node : dst;
    if (fault_hook_ != nullptr) {
      const std::uint64_t stream_key =
          (static_cast<std::uint64_t>(envelope.from) << 32) | envelope.to;
      stream_seq = ++fault_seq_[stream_key];
    }
  }
  double delay =
      delay_scale_ * topology().transfer_time(src, dst, envelope.wire_size());
  double dup_at = -1.0;
  if (fault_hook_ != nullptr) {
    const FaultDecision decision =
        fault_hook_->on_message(now(), src, dst, envelope, stream_seq);
    if (decision.tampered()) {
      if (obs::metrics_on()) {
        obs::Metrics::instance()
            .counter("net_fault_tampered_total",
                     {{"link", "n" + std::to_string(src) + "->n" +
                                   std::to_string(dst)}})
            .inc();
      }
      if (decision.duplicate) dup_at = delay + decision.dup_lag_s;
      if (decision.drop) {
        if (dup_at < 0.0) {
          if (obs::tracing()) {
            obs::Tracer::instance().instant(
                now(), "fault:drop:" + std::to_string(envelope.type),
                "net:n" + std::to_string(src), envelope.trace_id);
          }
          return;
        }
        // Dropped original but a duplicate survives: deliver only the copy.
        delay = dup_at;
        dup_at = -1.0;
      } else {
        delay += decision.extra_delay_s;
      }
    }
  }
  if (obs::metrics_on()) {
    auto& m = obs::Metrics::instance();
    const obs::Labels labels = {
        {"link", "n" + std::to_string(src) + "->n" + std::to_string(dst)}};
    m.counter("net_messages_total", labels).inc();
    m.counter("net_bytes_total", labels)
        .inc(static_cast<std::uint64_t>(envelope.wire_size()));
  }
  if (obs::tracing()) {
    obs::Tracer::instance().complete_span(
        now(), delay, "msg:" + std::to_string(envelope.type),
        "net:n" + std::to_string(src), envelope.trace_id);
  }
  const Endpoint to = envelope.to;
  const NodeId dst_node = dst;
  auto deliver = [this, to, dst_node](Envelope env) {
    return [this, to, dst_node, env = std::move(env)]() mutable {
      Actor* actor = nullptr;
      {
        GC_TRACKED_LOCK(lock, mutex_, kLockName);
        auto it = actors_.find(to);
        if (it != actors_.end()) actor = it->second.actor;
      }
      if (actor != nullptr) {
        if (obs::tracing()) {
          obs::Tracer::instance().instant(
              now(), "deliver:" + std::to_string(env.type),
              "net:n" + std::to_string(dst_node), env.trace_id);
        }
        actor->on_message(env);
      }
    };
  };
  if (dup_at >= 0.0) enqueue(now() + dup_at, deliver(envelope));
  enqueue(now() + delay, deliver(std::move(envelope)));
}

void RealEnv::execute(NodeId /*node*/, double /*modeled_seconds*/,
                      std::function<int()> work,
                      std::function<void(int)> done) {
  {
    GC_TRACKED_LOCK(lock, mutex_, kLockName);
    ++in_flight_;
  }
  std::thread worker([this, work = std::move(work),
                      done = std::move(done)]() mutable {
    const int result = work ? work() : 0;
    enqueue(now(), [done = std::move(done), result]() { done(result); });
    GC_TRACKED_LOCK(lock, mutex_, kLockName);
    --in_flight_;
    idle_cv_.notify_all();
  });
  GC_TRACKED_LOCK(lock, mutex_, kLockName);
  workers_.push_back(std::move(worker));
}

void RealEnv::dispatcher_loop() {
  check::LockTracker tracker(kLockName, __FILE__, __LINE__);
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // Drain cancelled timers eagerly so they neither delay shutdown nor
    // hold the idle predicate.
    while (!queue_.empty() && cancelled_.count(queue_.top().seq) > 0) {
      cancelled_.erase(queue_.top().seq);
      queued_ids_.erase(queue_.top().seq);
      queue_.pop();
    }
    if (stop_requested_ && queue_.empty()) break;
    if (queue_.empty()) {
      idle_cv_.notify_all();
      cv_.wait(lock);
      continue;
    }
    const SimTime deadline = queue_.top().deadline;
    const SimTime t = now();
    if (deadline > t) {
      if (live_queued() == 0 && in_flight_ == 0) idle_cv_.notify_all();
      cv_.wait_for(lock, std::chrono::duration<double>(deadline - t));
      continue;
    }
    // Pop and run outside the lock so callbacks can post/send freely.
    auto fn = std::move(const_cast<Timed&>(queue_.top()).fn);
    queued_ids_.erase(queue_.top().seq);
    queue_.pop();
    ++in_flight_;
    tracker.unlocked();
    lock.unlock();
    fn();
    lock.lock();
    tracker.relocked();
    --in_flight_;
    if (live_queued() == 0 && in_flight_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace gc::net
