// Radio model and encounter detection. Encounters (pairs entering/leaving
// radio range) drive MultipeerSim connectivity. Detection samples node
// positions on a fixed tick with a uniform grid for the pair search, so
// density-sweep benches with hundreds of nodes stay fast, and re-tests only
// the pairs touching a node that moved since the previous tick, so a
// sleeping fleet costs one position lookup per node and tick.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/mobility.hpp"
#include "sim/scheduler.hpp"

namespace sos::sim {

struct RadioParams {
  double range_m = 80.0;            // peer-to-peer WiFi class range
  double bandwidth_bps = 2e6 * 8;   // ~2 MB/s peer-to-peer WiFi
  double latency_s = 0.02;
  double setup_time_s = 1.5;        // MPC invite/handshake wall time

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.range_m, s.bandwidth_bps, s.latency_s, s.setup_time_s);
  }
};

/// Watches a mobility model and reports contact start/end between pairs.
class EncounterDetector {
 public:
  using ContactFn = std::function<void(std::size_t a, std::size_t b)>;

  EncounterDetector(Scheduler& sched, const MobilityModel& mobility, double range_m,
                    util::SimTime tick = 10.0);

  /// Begin periodic detection until `until`.
  void start(util::SimTime until);

  ContactFn on_contact_start;  // a < b
  ContactFn on_contact_end;    // a < b

  bool in_contact(std::size_t a, std::size_t b) const;
  std::size_t contact_count() const { return contacts_.size(); }
  std::uint64_t total_contacts_seen() const { return total_contacts_; }

  /// Run one detection pass at the current sim time (also used by tests).
  /// A node is "moved" when its position differs bitwise from the previous
  /// pass (every node is, on the first). Pairs of unmoved nodes keep their
  /// previous verdict — same positions, same test — and every pair touching
  /// a moved node is re-tested, so the result equals a full all-pairs scan.
  /// A node whose last sample still holds (MobilityModel::held_position) is
  /// unmoved without a lookup.
  void scan();

 private:
  using ContactPair = std::pair<std::size_t, std::size_t>;

  void tick_once(util::SimTime until);

  Scheduler& sched_;
  const MobilityModel& mobility_;
  double range_m_;
  util::SimTime tick_;
  // Tick deadlines are computed as start_at_ + k * tick_ rather than by
  // accumulating now + tick_: repeated addition drifts by an ulp every few
  // thousand ticks for non-representable intervals, and a month-long run
  // would scan at times that no longer match recorded trace timestamps.
  util::SimTime start_at_ = 0.0;
  std::uint64_t tick_index_ = 0;
  std::vector<ContactPair> contacts_;  // sorted; a < b within each pair
  std::uint64_t total_contacts_ = 0;

  using CellEntry = std::pair<std::uint64_t, std::size_t>;  // (cell key, node)

  // State carried between passes: the previous pass's positions and the
  // grid they occupy (every node's cell, sorted by key).
  std::vector<Vec2> pos_;
  std::vector<util::SimTime> held_until_;  // pos_[i] holds before this time
  std::vector<CellEntry> cells_;

  // Scratch buffers reused across ticks so a scan allocates nothing in
  // steady state (the detector runs every tick for the whole simulation).
  std::vector<char> is_moved_;
  std::vector<std::size_t> moved_;  // ascending
  std::vector<CellEntry> moved_cells_;
  std::vector<CellEntry> merged_cells_;
  std::vector<ContactPair> current_;
  std::vector<ContactPair> started_;
  std::vector<ContactPair> ended_;
};

}  // namespace sos::sim
