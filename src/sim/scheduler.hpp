// Discrete-event scheduler: the virtual clock every simulated component
// (mobility stepper, radio links, middleware timers) hangs off. Events at
// equal timestamps run in schedule order (FIFO by EventId), which keeps
// runs deterministic — the invariant every sweep- and replay-determinism
// guarantee in this repo rests on.
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
#include <queue>
#include <unordered_set>
#include <vector>

#include "util/time.hpp"

namespace sos::sim {

using EventId = std::uint64_t;
using EventFn = std::function<void()>;

/// Sentinel for "no event scheduled". The scheduler mints ids starting at 1
/// (schedule_* asserts the invariant), so 0 can never name a live event and
/// cancel(kInvalidEventId) is always a harmless no-op. Fields holding a
/// maybe-armed event id initialize to this, never to a bare 0.
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
  /// Cancel a pending event. Cancelling an id that already fired (or was
  /// already cancelled) is a no-op and leaves no bookkeeping behind, so
  /// long-running sims can cancel freely without growing state.
  void cancel(EventId id);

  /// Run the next event; false when the queue is empty.
  bool step();
  /// Run every event with timestamp <= t, then advance the clock to t.
  void run_until(util::SimTime t);
  /// Drain the queue completely.
  void run_all();

  std::size_t pending_events() const { return queued_.size(); }
  /// Cancelled-but-not-yet-popped events (bounded by pending_events()).
  std::size_t cancelled_backlog() const { return cancelled_.size(); }

 private:
  struct Event {
    util::SimTime at;
    EventId id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;  // FIFO among equal timestamps
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // sos-lint audit (unordered-iteration): both sets are membership-only
  // (contains/insert/erase); event order comes solely from the
  // (time, id)-ordered priority queue above, so hash order never leaks
  // into the trace.
  std::unordered_set<EventId> queued_;     // ids currently in the queue
  std::unordered_set<EventId> cancelled_;  // subset of queued_
  util::SimTime now_ = 0.0;
  EventId next_id_ = kInvalidEventId + 1;  // id 0 is reserved as the sentinel
};

}  // namespace sos::sim
