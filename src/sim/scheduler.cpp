#include "sim/scheduler.hpp"

#include <algorithm>

namespace sos::sim {

EventId Scheduler::schedule_at(util::SimTime t, EventFn fn) {
  if (t < now_) t = now_;  // never schedule into the past
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  heap_.push_back(Event{t, next_seq_++, slot, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
}

EventId Scheduler::schedule_in(util::SimTime dt, EventFn fn) {
  return schedule_at(now_ + dt, std::move(fn));
}

void Scheduler::cancel(EventId id) {
  // A stale id (its event fired or was cancelled, so the slot's generation
  // moved on or the flag is already set) and kInvalidEventId (generation 0,
  // never issued) fall through without touching any state.
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != generation || s.cancelled) return;
  s.cancelled = true;
  ++cancelled_;
}

bool Scheduler::pop_head(Event& out) {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  out = std::move(heap_.back());
  heap_.pop_back();
  Slot& s = slots_[out.slot];
  const bool cancelled = s.cancelled;
  if (cancelled) {
    --cancelled_;
    out.fn = nullptr;  // release the discarded callable's captures now
  }
  // Retire the handle before the event runs, so an event cancelling its
  // own id is a no-op. Generation 0 is skipped on wraparound: it would
  // mint kInvalidEventId for slot 0.
  s.cancelled = false;
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(out.slot);
  return cancelled;
}

bool Scheduler::step() {
  Event ev;
  while (!heap_.empty()) {
    if (pop_head(ev)) continue;
    now_ = ev.at;
    ev.fn();
    return true;
  }
  return false;
}

void Scheduler::run_until(util::SimTime t) {
  Event discarded;
  while (!heap_.empty()) {
    // Discard cancelled heads here rather than via step(): step() skips
    // cancelled events internally and would otherwise run the next LIVE
    // event even when it lies beyond t.
    if (slots_[heap_.front().slot].cancelled) {
      pop_head(discarded);
      continue;
    }
    if (heap_.front().at > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

}  // namespace sos::sim
