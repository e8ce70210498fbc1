#include "sim/trace.hpp"

#include <algorithm>

namespace sos::sim {

bool ContactTrace::add(ContactInterval c) {
  if (c.a == c.b || c.end < c.start) return false;
  if (c.a > c.b) std::swap(c.a, c.b);
  contacts_.push_back(c);
  return true;
}

std::size_t ContactTrace::node_count() const {
  std::uint32_t highest = 0;
  bool any = false;
  for (const auto& c : contacts_) {
    highest = std::max(highest, c.b);
    any = true;
  }
  return any ? highest + 1 : 0;
}

util::SimTime ContactTrace::duration() const {
  util::SimTime end = 0;
  for (const auto& c : contacts_) end = std::max(end, c.end);
  return end;
}

void TraceRecorder::contact_start(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  open_.emplace(std::pair{a, b}, sched_.now());
}

void TraceRecorder::contact_end(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  auto it = open_.find({a, b});
  if (it == open_.end()) return;
  trace_.add({it->second, sched_.now(), a, b});
  open_.erase(it);
}

ContactTrace TraceRecorder::finish() {
  for (const auto& [pair, started] : open_)
    trace_.add({started, sched_.now(), pair.first, pair.second});
  open_.clear();
  return std::move(trace_);
}

void TracePlayer::start() {
  pending_.reserve(pending_.size() + 2 * trace_.contacts().size());
  for (const auto& c : trace_.contacts()) {
    pending_.push_back(sched_.schedule_at(c.start, [this, c] {
      if (on_contact_start) on_contact_start(c.a, c.b);
    }));
    pending_.push_back(sched_.schedule_at(c.end, [this, c] {
      if (on_contact_end) on_contact_end(c.a, c.b);
    }));
  }
}

void TracePlayer::stop() {
  // Cancelling an id that already fired is a no-op, so the whole list can
  // be cancelled blindly.
  for (EventId id : pending_) sched_.cancel(id);
  pending_.clear();
}

}  // namespace sos::sim
