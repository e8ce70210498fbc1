#include "sim/radio.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

namespace sos::sim {

namespace {

bool same_bits(const Vec2& a, const Vec2& b) {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

}  // namespace

EncounterDetector::EncounterDetector(Scheduler& sched, const MobilityModel& mobility,
                                     double range_m, util::SimTime tick)
    : sched_(sched), mobility_(mobility), range_m_(range_m), tick_(tick) {}

void EncounterDetector::start(util::SimTime until) {
  start_at_ = sched_.now();
  tick_index_ = 0;
  sched_.schedule_in(0, [this, until] { tick_once(until); });
}

void EncounterDetector::tick_once(util::SimTime until) {
  scan();
  // Next deadline from the tick index, not by accumulating now + tick_:
  // summed rounding error would eventually misalign scans with the
  // timestamps a recorded trace carries (see start_at_).
  util::SimTime next = start_at_ + static_cast<double>(++tick_index_) * tick_;
  if (next <= until) {
    sched_.schedule_at(next, [this, until] { tick_once(until); });
  }
}

void EncounterDetector::scan() {
  const std::size_t n = mobility_.node_count();
  const util::SimTime now = sched_.now();

  // Sample positions and find the movers. pos_ is sized only here, so a
  // size mismatch marks the first pass, where every node counts as moved
  // and the rest of this function is the full grid scan.
  const bool first = pos_.size() != n;
  pos_.resize(n);
  held_until_.resize(n);
  is_moved_.resize(n);
  moved_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!first && now < held_until_[i]) {  // asleep or dwelling: no lookup
      is_moved_[i] = false;
      continue;
    }
    const HeldPosition p = mobility_.held_position(i, now);
    held_until_[i] = p.until;
    const bool moved = first || !same_bits(p.pos, pos_[i]);
    is_moved_[i] = moved;
    if (moved) moved_.push_back(i);
    pos_[i] = p.pos;
  }
  if (moved_.empty()) return;  // every verdict, hence the contact set, stands

  // Uniform grid with cell size = range: only same/neighbor cells can hold
  // pairs within range. The grid is a sorted (cell key, node) vector; the
  // movers leave it and re-enter at their new cells by one merge — no
  // per-tick hash map or bucket allocations.
  const double cell = range_m_;
  auto cell_xy = [cell](const Vec2& p) {
    return std::pair{static_cast<std::int32_t>(std::floor(p.x / cell)),
                     static_cast<std::int32_t>(std::floor(p.y / cell))};
  };
  auto key = [](std::int32_t gx, std::int32_t gy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(gx)) << 32) |
           static_cast<std::uint32_t>(gy);
  };
  std::erase_if(cells_, [this](const CellEntry& e) { return is_moved_[e.second] != 0; });
  moved_cells_.clear();
  for (std::size_t i : moved_) {
    auto [gx, gy] = cell_xy(pos_[i]);
    moved_cells_.emplace_back(key(gx, gy), i);
  }
  std::sort(moved_cells_.begin(), moved_cells_.end());
  merged_cells_.clear();
  std::merge(cells_.begin(), cells_.end(), moved_cells_.begin(), moved_cells_.end(),
             std::back_inserter(merged_cells_));
  cells_.swap(merged_cells_);

  // Verdicts between two unmoved nodes carry over; every pair touching a
  // mover is re-tested, a mover pair once (from its lower index).
  current_.clear();
  for (const auto& p : contacts_)
    if (!is_moved_[p.first] && !is_moved_[p.second]) current_.push_back(p);
  for (std::size_t i : moved_) {
    auto [gx, gy] = cell_xy(pos_[i]);
    for (int dx = -1; dx <= 1; ++dx)
      for (int dy = -1; dy <= 1; ++dy) {
        std::uint64_t k = key(gx + dx, gy + dy);
        auto it = std::lower_bound(cells_.begin(), cells_.end(), CellEntry{k, 0});
        for (; it != cells_.end() && it->first == k; ++it) {
          std::size_t j = it->second;
          if (j == i || (is_moved_[j] && j < i)) continue;
          auto [a, b] = std::minmax(i, j);
          if (distance(pos_[a], pos_[b]) <= range_m_) current_.emplace_back(a, b);
        }
      }
  }
  std::sort(current_.begin(), current_.end());

  // Diff against the previous contact set (both sorted).
  started_.clear();
  ended_.clear();
  std::set_difference(current_.begin(), current_.end(), contacts_.begin(), contacts_.end(),
                      std::back_inserter(started_));
  std::set_difference(contacts_.begin(), contacts_.end(), current_.begin(), current_.end(),
                      std::back_inserter(ended_));
  total_contacts_ += started_.size();
  if (on_contact_start)
    for (const auto& p : started_) on_contact_start(p.first, p.second);
  if (on_contact_end)
    for (const auto& p : ended_) on_contact_end(p.first, p.second);
  contacts_.swap(current_);
}

bool EncounterDetector::in_contact(std::size_t a, std::size_t b) const {
  if (a > b) std::swap(a, b);
  return std::binary_search(contacts_.begin(), contacts_.end(), ContactPair{a, b});
}

}  // namespace sos::sim
