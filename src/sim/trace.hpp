// Contact traces: record the encounter sequence of a run and replay it
// later through the scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/scheduler.hpp"

namespace sos::sim {

struct ContactInterval {
  util::SimTime start = 0;
  util::SimTime end = 0;  // end >= start
  std::uint32_t a = 0;
  std::uint32_t b = 0;    // a < b after normalization

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.start, s.end, s.a, s.b);
  }
};

class ContactTrace {
 public:
  /// Append a contact (normalizes node order; rejects a == b or end<start).
  bool add(ContactInterval c);

  const std::vector<ContactInterval>& contacts() const { return contacts_; }
  std::size_t size() const { return contacts_.size(); }
  /// Highest node index mentioned + 1 (0 when empty).
  std::size_t node_count() const;
  util::SimTime duration() const;

 private:
  std::vector<ContactInterval> contacts_;
};

/// Records contact start/end events (wire it to an EncounterDetector) and
/// produces a ContactTrace of the run.
class TraceRecorder {
 public:
  explicit TraceRecorder(Scheduler& sched) : sched_(sched) {}

  void contact_start(std::uint32_t a, std::uint32_t b);
  void contact_end(std::uint32_t a, std::uint32_t b);
  /// Close any still-open contacts at the current time and return the trace.
  ContactTrace finish();

 private:
  Scheduler& sched_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, util::SimTime> open_;
  ContactTrace trace_;
};

/// Replays a trace through the scheduler, invoking the callbacks exactly
/// when contacts begin and end — a drop-in alternative to EncounterDetector
/// for driving MpcNetwork::set_in_range.
class TracePlayer {
 public:
  TracePlayer(Scheduler& sched, ContactTrace trace)
      : sched_(sched), trace_(std::move(trace)) {}
  /// Cancels any still-pending contact events: the scheduled callbacks
  /// capture `this`, so a player destroyed mid-run must not leave them
  /// behind in the scheduler.
  ~TracePlayer() { stop(); }
  TracePlayer(const TracePlayer&) = delete;
  TracePlayer& operator=(const TracePlayer&) = delete;

  std::function<void(std::uint32_t, std::uint32_t)> on_contact_start;
  std::function<void(std::uint32_t, std::uint32_t)> on_contact_end;

  /// Schedule every contact event; call before running the scheduler.
  void start();
  /// Cancel every not-yet-fired contact event.
  void stop();

 private:
  Scheduler& sched_;
  ContactTrace trace_;
  std::vector<EventId> pending_;
};

}  // namespace sos::sim
