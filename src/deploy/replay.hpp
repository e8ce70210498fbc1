// Partitioned replay. A recorded ScenarioWorld fixes every contact before
// replay begins, so the run can be cut into a task DAG (sim::ContactDag)
// and executed on scheduler/network shards, per-node middleware state
// carried across shard boundaries through the SosNode detach/attach seam.
// Each member detaches at its own last contact within a task, cutting node
// timelines into strands between consecutive contacts — the recorded trace
// is the conservative-lookahead oracle that makes this safe without any
// null-message protocol.
//
// Per-task metrics merge in deterministic task-index order; results are
// bitwise identical to the single-scheduler reference in run_scenario at
// any worker count.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "deploy/scenario.hpp"

namespace sos::mw {
class SosNode;
}
namespace sos::util {
class Writer;
class Reader;
}  // namespace sos::util

namespace sos::deploy {

/// A replay broken into externally driven segments — the engine under
/// run_scenario's strand path and the soak harness's checkpoint/resume.
/// Construction performs the single-scheduler setup sequence (RNG stream
/// order, fleet build, social wiring, workload timelines); advance_to(t)
/// then replays every remaining contact ending at or before t and runs each
/// node's local timers up to t, so a cut placed in a globally quiescent
/// contact gap leaves the fleet in a serializable state (no sessions, only
/// absolute timer deadlines). Segment-by-segment execution is bitwise
/// identical to one uninterrupted advance_to(horizon()): tasks never
/// straddle a quiescent gap, and per-node state crosses segments through
/// the same detach/attach seam it crosses shard boundaries with.
///
/// ReplayOptions::subepisode_jobs > 0 replays each segment on the strand
/// DAG with up to that many workers; 0 ("mono") replays it as one fused task
/// (sim::ContactDag::fused) — single-scheduler semantics on the same
/// machinery.
class ReplaySession {
 public:
  ReplaySession(const ScenarioConfig& config, const ScenarioWorld& world,
                const ReplayOptions& replay);
  ~ReplaySession();
  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  /// Midpoints of globally quiescent contact gaps of at least `min_gap`
  /// seconds (no contact open anywhere in the gap), ascending; includes the
  /// final gap before the horizon when long enough. Contact times are
  /// multiples of the encounter tick, so a midpoint never ties with a
  /// contact event. These are the legal checkpoint boundaries.
  std::vector<util::SimTime> quiescent_cuts(util::SimTime min_gap) const;

  /// Replay up to sim time t (clamped to the horizon; must not go
  /// backwards). t must be a quiescent cut or the horizon.
  void advance_to(util::SimTime t);

  util::SimTime sim_time() const;
  util::SimTime horizon() const;

  /// Fleet-wide counter totals at the current cut (monotonic over a run).
  mw::NodeStats stats_totals() const;
  /// Oracle records and wire counters merged so far (totals are only
  /// aggregated by finish()).
  const ScenarioResult& partial() const;
  std::size_t node_count() const;
  mw::SosNode& node(std::size_t i);

  /// Final result; call once after advance_to(horizon()).
  ScenarioResult finish();

  /// Serialize the full session state at the current cut: sim time, the
  /// record table (each unique bundle body, certificate and verify verdict
  /// the fleet holds, written once — see bundle/records.hpp), every node's
  /// middleware state (the detach/attach inventory, referring into the
  /// table), timeline cursors, per-node resume points, and the merged
  /// partial metrics. The setup-time state (fleet identities, social graph,
  /// timelines) is not written — a resuming session reconstructs it from
  /// the same config. `w` is reserved once, to the payload's exact size,
  /// before the table is written.
  void save_state(util::Writer& w) const;
  /// Mirror of save_state; call on a freshly constructed session for the
  /// same config/world before any advance_to. Returns false on malformed
  /// input (the session must then be discarded): truncation, trailing
  /// bytes, a malformed record table or one that repeats an entry, a node
  /// count mismatch, a sim time that is non-finite or outside [0, horizon],
  /// a resume point outside [0, sim time], or a timeline cursor past its
  /// timeline's end. Those checks all run before any node state is touched;
  /// a table index out of range fails the node that reads it.
  bool load_state(util::Reader& r);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sos::deploy
