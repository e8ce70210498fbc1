// Discrete-event scheduler: the virtual clock every simulated component
// (mobility stepper, radio links, middleware timers) hangs off. Events at
// equal timestamps run in schedule order (FIFO by a per-scheduler sequence
// number), which keeps runs deterministic — the invariant every sweep- and
// replay-determinism guarantee in this repo rests on. The queue is a
// vector heap whose events pop by move, so a callable (say, a frame
// delivery holding its payload) is never copied; no hashed container is
// involved, so no hash order can leak into a trace.
//
// A run no longer implies a single scheduler for its whole lifetime: the
// strand replay engine (sim/subepisode.hpp, deploy/replay.cpp) runs each
// causally-independent task on its own scheduler shard, constructed at the
// task's start time, and carries per-node middleware
// state across shards through the SosNode detach/attach seam. Shards are
// plain Schedulers — no locking; one thread drives one shard at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.hpp"

namespace sos::sim {

/// Opaque handle naming one scheduled event: (slot generation << 32) | slot.
/// Slots are recycled once their event pops, and the generation bump makes
/// every handle minted for an earlier occupant stale, so cancel() of a fired
/// or cancelled event is a no-op in O(1).
using EventId = std::uint64_t;
using EventFn = std::function<void()>;

/// Sentinel for "no event scheduled". Slot generations start at 1 and skip
/// 0 when they wrap, so no handle is ever 0 and cancel(kInvalidEventId) is
/// always a harmless no-op. Fields holding a maybe-armed event id
/// initialize to this, never to a bare 0.
inline constexpr EventId kInvalidEventId = 0;

class Scheduler {
 public:
  Scheduler() = default;
  /// Start the clock at `start` (a task shard beginning mid-timeline).
  explicit Scheduler(util::SimTime start) : now_(start) {}

  util::SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time t (clamped to now if in the past).
  EventId schedule_at(util::SimTime t, EventFn fn);
  /// Schedule `fn` dt seconds from now.
  EventId schedule_in(util::SimTime dt, EventFn fn);
  /// Cancel a pending event in O(1). Cancelling an id that already fired
  /// (or was already cancelled) is a no-op and leaves no bookkeeping
  /// behind, so long-running sims can cancel freely without growing state.
  void cancel(EventId id);

  /// Run the next event; false when the queue is empty.
  bool step();
  /// Run every event with timestamp <= t, then advance the clock to t.
  void run_until(util::SimTime t);
  /// Drain the queue completely.
  void run_all();

  std::size_t pending_events() const { return heap_.size(); }
  /// Cancelled-but-not-yet-popped events (bounded by pending_events()).
  std::size_t cancelled_backlog() const { return cancelled_; }

 private:
  struct Event {
    util::SimTime at = 0.0;
    std::uint64_t seq = 0;  // schedule order: FIFO among equal timestamps
    std::uint32_t slot = 0;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::uint32_t generation = 1;
    bool cancelled = false;
  };

  /// Pop the head event by move, recycling its slot; returns whether it
  /// was cancelled (the caller then discards it).
  bool pop_head(Event& out);

  std::vector<Event> heap_;  // std heap under Later: front() is the next event
  // One slot per queued event, recycled through free_slots_: bookkeeping
  // is bounded by the peak queue length, not by the ids ever minted.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t cancelled_ = 0;
  util::SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace sos::sim
