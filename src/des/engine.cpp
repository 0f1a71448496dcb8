#include "des/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gc::des {

namespace {

double engine_clock(const void* ctx) {
  return static_cast<const Engine*>(ctx)->now();
}

/// Compaction trigger: tombstones may occupy at most half the calendar
/// (and small calendars are never worth rebuilding).
constexpr std::size_t kCompactMinEntries = 64;

/// Causal event id: a splitmix64-style mix of the parent event's cid and
/// the child's index among its parent's scheduled events. A handler's
/// behavior depends only on its own actor's state, so the children of an
/// event keep the same cids no matter how unrelated events interleave
/// around it — which is what lets the model checker name "the same event"
/// across different explored schedules.
std::uint64_t mix_cid(std::uint64_t parent, std::uint64_t child) {
  std::uint64_t z = parent + child * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* event_tag_name(EventTag tag) {
  switch (tag) {
    case EventTag::kGeneric:
      return "generic";
    case EventTag::kTimer:
      return "timer";
    case EventTag::kMessage:
      return "message";
    case EventTag::kExecute:
      return "execute";
    case EventTag::kSampler:
      return "sampler";
    case EventTag::kCount:
      break;
  }
  return "unknown";
}

Engine::Engine() { set_log_clock(&engine_clock, this); }

Engine::~Engine() { clear_log_clock(this); }

std::uint64_t Engine::tie_of(std::uint64_t seq) const {
  if (tie_seed_ == 0) return seq;
  // splitmix64 finalizer: a bijection over u64, so distinct sequence
  // numbers keep distinct tie keys and the scramble is a pure permutation
  // of the insertion order among equal timestamps.
  std::uint64_t z = seq + tie_seed_ * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Engine::heap_push(const HeapEntry& entry) {
  std::size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry moving = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void Engine::heap_pop() {
  // Bottom-up deletion: walk the hole at the root down to a leaf along the
  // minimal children (one compare per child, none against the filler),
  // then sift the last entry up from there. The filler almost always
  // belongs near the bottom, so this does fewer compares than a classic
  // sift-down. The layout may differ from a sift-down's, but the pop
  // sequence cannot: (time, tie, seq) is a strict total order, so every
  // valid heap yields the same unique minimum.
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  sift_up(hole);
}

void Engine::sift_up(std::size_t i) {
  const HeapEntry moving = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void Engine::heap_remove_at(std::size_t i) {
  heap_[i] = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    // The filler came from a leaf: it may be out of order in either
    // direction relative to its new neighborhood, but only one applies.
    if (i > 0 && earlier(heap_[i], heap_[(i - 1) / 4])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }
}

void Engine::free_slot(std::uint32_t slot) {
  ++slab_[slot].generation;
  free_slots_.push_back(slot);
}

void Engine::drop_tombstone_root() {
  const std::uint32_t slot = heap_[0].slot;
  heap_pop();
  --tombstones_;
  free_slot(slot);
}

void Engine::compact() {
  std::size_t keep = 0;
  for (const HeapEntry& entry : heap_) {
    if (slab_[entry.slot].armed) {
      heap_[keep++] = entry;
    } else {
      free_slot(entry.slot);
    }
  }
  heap_.resize(keep);
  if (keep > 1) {
    // Floyd heapify over the 4-ary layout: sift down every internal node.
    for (std::size_t i = (keep - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
  tombstones_ = 0;
}

EventId Engine::schedule_at(SimTime t, EventFn fn, EventTag tag,
                            std::uint32_t owner) {
  // Routed through the invariant layer when it is compiled in (so tests
  // can seed the violation); still a hard check in GC_CHECK=OFF builds.
  GC_INVARIANT(t >= now_, "event scheduled in the past");
  GC_CHECK_MSG(t >= now_ || check::kEnabled, "event scheduled in the past");
  if (obs::metrics_on()) {
    // Cached across calls; Metrics::reset() zeroes but never invalidates.
    static obs::Counter& scheduled =
        obs::Metrics::instance().counter("des_events_scheduled_total");
    scheduled.inc();
  }
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Record& record = slab_[slot];
  record.fn = std::move(fn);
  record.tag = tag;
  record.owner = owner == kInheritOwner ? current_owner_ : owner;
  record.cid = in_event_ ? mix_cid(current_cid_, ++current_children_)
                         : mix_cid(0, ++root_children_);
  record.armed = true;
  ++tag_scheduled_[static_cast<std::size_t>(tag)];
  heap_push(HeapEntry{t, tie_of(seq), seq, slot});
  ++live_;
  if (heap_.size() > depth_highwater_) {
    depth_highwater_ = heap_.size();
    if (obs::metrics_on()) {
      static obs::Gauge& depth =
          obs::Metrics::instance().gauge("des_queue_depth");
      depth.set(static_cast<double>(depth_highwater_));
    }
  }
  return (static_cast<EventId>(record.generation) << 32) | slot;
}

bool Engine::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffULL);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slab_.size()) return false;
  Record& record = slab_[slot];
  if (!record.armed || record.generation != generation) return false;
  // Independence tripwire for the model checker: a handler reaching into
  // another owner's pending event couples the two owners.
  if (in_event_ && record.owner != current_owner_) ++cross_owner_cancels_;
  record.armed = false;
  record.fn.reset();  // release captures now, not at pop time
  --live_;
  ++tombstones_;
  if (obs::metrics_on()) {
    static obs::Counter& cancelled =
        obs::Metrics::instance().counter("des_events_cancelled_total");
    cancelled.inc();
  }
  if (heap_.size() >= kCompactMinEntries && tombstones_ * 2 > heap_.size()) {
    compact();
  }
  return true;
}

void Engine::publish_tag_metrics() const {
  if (!obs::metrics_on()) return;
  obs::Metrics& metrics = obs::Metrics::instance();
  for (std::size_t i = 0; i < kEventTagCount; ++i) {
    const auto tag = static_cast<EventTag>(i);
    const obs::Labels labels = {{"tag", event_tag_name(tag)}};
    metrics.gauge("des_events_scheduled_by_tag", labels)
        .set(static_cast<double>(tag_scheduled_[i]));
    metrics.gauge("des_events_executed_by_tag", labels)
        .set(static_cast<double>(tag_executed_[i]));
    metrics.gauge("des_time_advanced_seconds_by_tag", labels)
        .set(tag_time_[i]);
  }
}

bool Engine::step() {
  return strategy_ != nullptr ? step_controlled() : step_native();
}

void Engine::dispatch(const HeapEntry& top) {
  Record& record = slab_[top.slot];
  GC_INVARIANT(top.time >= now_, "virtual clock would move backwards");
  EventFn fn = std::move(record.fn);
  const auto tag_index = static_cast<std::size_t>(record.tag);
  const std::uint64_t cid = record.cid;
  const std::uint32_t owner = record.owner;
  record.armed = false;
  free_slot(top.slot);  // fn() may reuse the slot; record is dead from here
  --live_;
  ++tag_executed_[tag_index];
  tag_time_[tag_index] += top.time - now_;
  now_ = top.time;
  ++executed_;
  if (obs::metrics_on()) {
    static obs::Counter& executed =
        obs::Metrics::instance().counter("des_events_executed_total");
    executed.inc();
  }
  in_event_ = true;
  current_owner_ = owner;
  current_cid_ = cid;
  current_children_ = 0;
  fn();
  in_event_ = false;
  current_owner_ = 0;
  current_cid_ = 0;
}

bool Engine::step_native() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    if (!slab_[top.slot].armed) {
      drop_tombstone_root();
      continue;
    }
    heap_pop();
    dispatch(top);
    return true;
  }
  return false;
}

bool Engine::step_controlled() {
  // Reclaim tombstone roots so heap_[0] is the true minimal armed time.
  while (!heap_.empty() && !slab_[heap_[0].slot].armed) drop_tombstone_root();
  if (heap_.empty()) return false;
  const SimTime next_time = heap_[0].time;
  // The co-enabled tie group: every armed entry at the minimal timestamp.
  // A linear scan of the calendar — the checker's scenarios keep it small,
  // and the native path never comes through here.
  std::vector<HeapEntry> group;
  for (const HeapEntry& entry : heap_) {
    if (entry.time == next_time && slab_[entry.slot].armed) {
      group.push_back(entry);
    }
  }
  // Present in native pop order: index 0 is what step_native would run.
  std::sort(group.begin(), group.end(), earlier);
  choice_scratch_.clear();
  for (const HeapEntry& entry : group) {
    const Record& record = slab_[entry.slot];
    choice_scratch_.push_back(Choice{record.cid, entry.seq, entry.time,
                                     entry.slot, record.owner, record.tag});
  }
  const std::size_t picked = strategy_->pick(choice_scratch_);
  if (picked == Strategy::kAbortRun) return false;
  GC_CHECK_MSG(picked < choice_scratch_.size(), "strategy pick out of range");
  const std::uint32_t slot = choice_scratch_[picked].slot;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (heap_[i].slot != slot) continue;
    const HeapEntry top = heap_[i];
    heap_remove_at(i);
    dispatch(top);
    return true;
  }
  GC_CHECK_MSG(false, "picked choice vanished from the calendar");
  return false;
}

void Engine::run() {
  const SimTime start = now_;
  const std::uint64_t executed_before = executed_;
  while (step()) {
  }
  if (obs::tracing() && executed_ > executed_before) {
    obs::SpanId span =
        obs::Tracer::instance().begin_span(start, "des.run", "des");
    obs::Tracer::instance().span_arg(
        span, "events", std::to_string(executed_ - executed_before));
    obs::Tracer::instance().end_span(span, now_);
  }
}

void Engine::run_until(SimTime t_end) {
  const SimTime start = now_;
  const std::uint64_t executed_before = executed_;
  while (!heap_.empty()) {
    // Reclaim cancelled heads eagerly so they never advance the clock and
    // are never re-scanned on the next iteration.
    if (!slab_[heap_[0].slot].armed) {
      drop_tombstone_root();
      continue;
    }
    if (heap_[0].time > t_end) break;
    if (!step()) break;  // only a strategy abort stops a non-empty calendar
  }
  if (now_ < t_end) now_ = t_end;
  if (obs::tracing() && executed_ > executed_before) {
    obs::SpanId span =
        obs::Tracer::instance().begin_span(start, "des.run_until", "des");
    obs::Tracer::instance().span_arg(
        span, "events", std::to_string(executed_ - executed_before));
    obs::Tracer::instance().end_span(span, now_);
  }
}

}  // namespace gc::des
