// Discrete-event simulation kernel.
//
// The Grid'5000-scale experiments of the paper run for ~16 simulated hours;
// they are executed here as a discrete-event simulation: every agent, SED
// and client is an event-driven actor, and this engine owns the virtual
// clock and the event calendar. Determinism: events at equal timestamps
// fire in insertion order (monotonic sequence number tiebreak), so a given
// seed replays exactly.
//
// set_tie_break_seed() scrambles that same-timestamp order with a seeded
// bijection. Simulation *outcomes* must not depend on it: any two events
// that share a timestamp are logically concurrent, and code that needs an
// order (per-link FIFO, client submission order) must enforce one
// explicitly. tests/test_schedule_fuzz.cpp replays whole campaigns under
// many seeds and asserts byte-identical results.
//
// Performance (see DESIGN.md, "DES kernel performance"): the calendar is a
// 4-ary min-heap of 32-byte entries over a slab-allocated event-record
// pool. Handlers are stored in the slab as EventFn — a small-buffer
// callable, so typical lambdas never touch the allocator — and cancellation
// is O(1) and generation-checked: it disarms the record in place without
// searching the heap. Cancelled entries left in the heap (tombstones) are
// compacted away once they outnumber half the calendar, so cancel-heavy
// users (heartbeat/retry timers) cannot grow the heap without bound. The
// pop order is the total order (time, tie, seq) — identical, under every
// tie-break seed, to the pre-optimization reference implementation kept in
// des/reference.hpp; tests/test_des_property.cpp proves it differentially.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "check/invariant.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "des/event_fn.hpp"

namespace gc::des {

/// Handle for cancelling a scheduled event: (generation << 32) | slot into
/// the engine's record pool. Generations start at 1, so 0 is never issued
/// — callers use 0 as "no timer".
using EventId = std::uint64_t;

/// Coarse classification of calendar events for engine introspection: who
/// is the calendar working for? Tags are assigned at the schedule_* call
/// site (SimEnv tags its delivery/execute/timer events; everything else
/// defaults to kGeneric) and attributed at pop time. Counting is always on
/// — three array increments per event — while *publishing* the numbers as
/// metrics gauges is gated on metrics_on().
enum class EventTag : std::uint8_t {
  kGeneric = 0,  ///< untagged schedule_* calls
  kTimer,        ///< Env::post_after timers (heartbeats, retries, ticks)
  kMessage,      ///< modeled message delivery (SimEnv::send)
  kExecute,      ///< modeled computation completion (SimEnv::execute)
  kSampler,      ///< observability sampling ticks (obs::TimeSeries)
  kCount,        ///< number of tags, not a tag
};

inline constexpr std::size_t kEventTagCount =
    static_cast<std::size_t>(EventTag::kCount);

/// Stable lowercase name for metric labels and reports.
const char* event_tag_name(EventTag tag);

/// Owner of an event: the actor endpoint whose private state the handler
/// mutates. 0 is the "root context" (scenario setup code, handlers that
/// touch shared/global state) and is conservatively treated as dependent
/// with everything by the model checker. Events scheduled from inside a
/// handler inherit the running event's owner unless the call site says
/// otherwise (SimEnv deliveries are owned by the destination endpoint).
inline constexpr std::uint32_t kInheritOwner = 0xffffffffu;

/// One schedulable alternative at a controlled decision point: an armed
/// calendar entry at the minimal pending timestamp. Choices are presented
/// in native pop order — index 0 is what an uncontrolled step() would run.
struct Choice {
  std::uint64_t cid;   ///< causal id, stable across interleavings
  std::uint64_t seq;   ///< insertion order (debugging / trace dumps)
  SimTime time;        ///< the shared timestamp of the tie group
  std::uint32_t slot;  ///< calendar slot (engine-internal)
  std::uint32_t owner; ///< see kInheritOwner doc; 0 = root context
  EventTag tag;
};

/// External schedule strategy: consulted on EVERY controlled step with the
/// full tie group of co-enabled events; returns the index to execute, or
/// kAbortRun to stop the run (step() then returns false with the calendar
/// intact). The model checker in src/mc is the real client; a strategy
/// that always returns 0 replays the native (tie-seed) order exactly.
class Strategy {
 public:
  static constexpr std::size_t kAbortRun = static_cast<std::size_t>(-1);
  virtual ~Strategy() = default;
  virtual std::size_t pick(const std::vector<Choice>& choices) = 0;
};

class Engine {
 public:
  /// While it lives, the engine's virtual clock is the logger's time
  /// source, so log lines during a simulation carry sim time.
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules fn at absolute simulated time t (>= now). `owner` defaults
  /// to inheriting the currently executing event's owner (root context 0
  /// outside any handler); pass an explicit endpoint to re-root ownership
  /// (SimEnv does this for message deliveries).
  EventId schedule_at(SimTime t, EventFn fn, EventTag tag = EventTag::kGeneric,
                      std::uint32_t owner = kInheritOwner);

  /// Schedules fn after a delay (>= 0) from now.
  EventId schedule_after(SimTime delay, EventFn fn,
                         EventTag tag = EventTag::kGeneric,
                         std::uint32_t owner = kInheritOwner) {
    GC_CHECK_MSG(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::move(fn), tag, owner);
  }

  /// Cancels a pending event in O(1); returns false if it already fired,
  /// was already cancelled, or is unknown. The handler (and its captures)
  /// is released immediately; the calendar entry becomes a tombstone that
  /// compaction or a later pop reclaims.
  bool cancel(EventId id);

  /// Executes the next event; returns false when the calendar is empty.
  bool step();

  /// Runs until the calendar drains.
  void run();

  /// Runs while the next event's timestamp is <= t_end; the clock ends at
  /// min(t_end, drain time).
  void run_until(SimTime t_end);

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t events_pending() const { return live_; }
  /// Cancelled events still occupying calendar entries. Bounded by the
  /// compaction threshold: never more than half the calendar (plus the
  /// sub-threshold constant), regardless of cancellation rate.
  [[nodiscard]] std::size_t events_tombstoned() const { return tombstones_; }
  /// Peak calendar size (live + tombstones) over the engine's lifetime —
  /// what the des_queue_depth gauge reports when metrics are on.
  [[nodiscard]] std::size_t queue_depth_highwater() const {
    return depth_highwater_;
  }

  // Per-tag introspection. Deterministic by construction: counts and
  // virtual-time deltas only — never wall time — so the numbers (and any
  // export containing them) are byte-identical run to run.
  [[nodiscard]] std::uint64_t events_scheduled_by_tag(EventTag tag) const {
    return tag_scheduled_[static_cast<std::size_t>(tag)];
  }
  [[nodiscard]] std::uint64_t events_executed_by_tag(EventTag tag) const {
    return tag_executed_[static_cast<std::size_t>(tag)];
  }
  /// Total virtual time the clock advanced *into* events of this tag: for
  /// each executed event, (its timestamp - previous clock). Sums over all
  /// tags to now() for a run started at 0 — a decomposition of simulated
  /// time by what kind of event the calendar was waiting on.
  [[nodiscard]] double time_advanced_by_tag(EventTag tag) const {
    return tag_time_[static_cast<std::size_t>(tag)];
  }

  /// Publishes the per-tag counts and time attribution as metrics gauges
  /// (des_events_executed_by_tag{tag=...} etc). No-op when metrics are
  /// off. Call whenever a snapshot is about to be taken — the time-series
  /// sampler does this each tick.
  void publish_tag_metrics() const;

  /// Schedule-fuzzing hook: seed != 0 replaces the insertion-order
  /// tie-break among equal-timestamp events with a seeded bijective
  /// scramble of the event sequence numbers. 0 restores insertion order.
  /// Only affects events scheduled after the call.
  void set_tie_break_seed(std::uint64_t seed) { tie_seed_ = seed; }
  [[nodiscard]] std::uint64_t tie_break_seed() const { return tie_seed_; }

  /// Controlled-scheduler seam: while a strategy is installed, every
  /// step() gathers the armed events at the minimal pending timestamp (the
  /// co-enabled tie group) and executes the one the strategy picks. With
  /// nullptr (the default) the native pop path runs, byte-identical to the
  /// pre-seam engine. The strategy must outlive its installation.
  void set_strategy(Strategy* strategy) { strategy_ = strategy; }
  [[nodiscard]] Strategy* strategy() const { return strategy_; }

  /// Causal id of the currently executing event (0 outside any handler).
  [[nodiscard]] std::uint64_t current_cid() const { return current_cid_; }
  /// Owner of the currently executing event (0 outside any handler).
  [[nodiscard]] std::uint32_t current_owner() const { return current_owner_; }

  /// Soundness tripwire for the model checker's independence relation:
  /// number of cancels issued from inside a handler against an event a
  /// *different* owner scheduled. Such a cancel couples two owners the
  /// relation assumes commute; mc asserts this stays 0 over a run.
  [[nodiscard]] std::uint64_t cross_owner_cancels() const {
    return cross_owner_cancels_;
  }

 private:
  /// One calendar entry; 32 bytes so heap sifts move cache-friendly PODs
  /// while the handler stays put in the slab.
  struct HeapEntry {
    SimTime time;
    std::uint64_t tie;  ///< equal-timestamp order: seq, or a seeded scramble
    std::uint64_t seq;  ///< insertion order; final tie key across seed epochs
    std::uint32_t slot;
  };

  /// Slab record: the handler plus the liveness/generation state that
  /// makes cancellation O(1). A record is addressed by exactly one heap
  /// entry from schedule to pop/compaction; `armed` false marks a
  /// tombstone, and the generation (high half of the EventId) invalidates
  /// stale handles once the slot is recycled.
  struct Record {
    EventFn fn;
    std::uint64_t cid = 0;   ///< causal id: mix(parent cid, child index)
    std::uint32_t generation = 1;
    std::uint32_t owner = 0; ///< owning endpoint; 0 = root context
    EventTag tag = EventTag::kGeneric;
    bool armed = false;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.tie != b.tie) return a.tie < b.tie;
    return a.seq < b.seq;
  }

  [[nodiscard]] std::uint64_t tie_of(std::uint64_t seq) const;

  void heap_push(const HeapEntry& entry);
  /// Removes the root (heap_[0]).
  void heap_pop();
  void sift_down(std::size_t i);
  void sift_up(std::size_t i);
  /// Removes the entry at an arbitrary heap index, restoring heap order.
  void heap_remove_at(std::size_t i);
  /// Native pop-the-root step (the pre-seam fast path).
  bool step_native();
  /// Strategy-driven step: collect the minimal-time tie group, let the
  /// installed strategy pick (or abort), execute the chosen entry.
  bool step_controlled();
  /// Runs one popped record's handler with owner/cid context tracked.
  void dispatch(const HeapEntry& top);
  /// Drops every tombstone from the heap, frees their slots, re-heapifies.
  void compact();
  void free_slot(std::uint32_t slot);
  /// Pops + frees the root, which must be a tombstone.
  void drop_tombstone_root();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t tie_seed_ = 0;
  std::uint64_t executed_ = 0;
  Strategy* strategy_ = nullptr;
  bool in_event_ = false;
  std::uint32_t current_owner_ = 0;
  std::uint64_t current_cid_ = 0;
  std::uint64_t current_children_ = 0;  ///< events scheduled by the running handler
  std::uint64_t root_children_ = 0;     ///< events scheduled outside any handler
  std::uint64_t cross_owner_cancels_ = 0;
  std::vector<Choice> choice_scratch_;  ///< reused by step_controlled
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t depth_highwater_ = 0;
  std::uint64_t tag_scheduled_[kEventTagCount] = {};
  std::uint64_t tag_executed_[kEventTagCount] = {};
  double tag_time_[kEventTagCount] = {};
  std::vector<HeapEntry> heap_;
  std::vector<Record> slab_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace gc::des
