// Month-scale soak driver: replays a recorded world segment by segment on a
// deploy::ReplaySession, snapshotting fleet metrics at a fixed sim-time
// cadence, checkpointing at quiescent contact gaps, and halting on
// stop conditions (horizon, wall-clock budget, metric predicates) or on a
// rolling-window anomaly. Segmented execution is bitwise identical to an
// uninterrupted replay, so anything the soak flags is a real time-scale bug,
// not a harness artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deploy/scenario.hpp"
#include "soak/anomaly.hpp"
#include "soak/checkpoint.hpp"

namespace sos::deploy {
class ReplaySession;
}

namespace sos::soak {

/// One metric predicate: halt when `metric op value` holds at a snapshot.
/// Supported ops: ">=" and "<=". Metrics are the snapshot's flat names
/// (e.g. "deliveries", "bundles_sent", "rss_kb", "sim_days").
struct StopPredicate {
  std::string metric;
  std::string op;
  double value = 0;
};

struct StopConditions {
  /// Wall-clock budget in seconds; 0 = unlimited. Checked at snapshots.
  double wall_budget_s = 0;
  std::vector<StopPredicate> predicates;
};

struct SoakOptions {
  deploy::ScenarioConfig config;
  deploy::ReplayOptions replay;
  /// Sim-time between metric snapshots (snapshots land on the first
  /// quiescent cut at or after each multiple).
  double snapshot_interval_s = 6 * 3600.0;
  /// Sim-time between checkpoints; checkpoints require checkpoint_dir.
  double checkpoint_interval_s = 86400.0;
  std::string checkpoint_dir;  // empty = no checkpoints
  std::string jsonl_path;      // empty = no event log
  /// Minimum globally quiescent contact gap eligible as a cut.
  double min_gap_s = 60.0;
  bool anomaly_detection = true;
  AnomalyConfig anomaly;
  StopConditions stop;
};

struct SoakResult {
  deploy::ScenarioResult scenario;  // merged metrics at halt (final iff completed)
  bool completed = false;           // reached the horizon
  std::string stop_reason;          // "horizon" | "wall-budget" | "predicate:..." | "anomaly:..."
  std::vector<Anomaly> anomalies;
  std::uint64_t segments = 0;            // advance_to segments executed (cumulative)
  std::uint64_t checkpoints_written = 0;
  double sim_time = 0;
  std::vector<MetricSnapshot> snapshots;
};

/// Resolve a snapshot metric by its flat JSONL name; false if unknown.
bool snapshot_metric(const MetricSnapshot& snap, const std::string& name, double* out);

class Runner {
 public:
  explicit Runner(SoakOptions opts) : opts_(std::move(opts)) {}

  /// Run from sim time 0 to the horizon (or an earlier stop condition).
  SoakResult run(const deploy::ScenarioWorld& world);

  /// Resume from a checkpoint previously written by run()/resume() against
  /// the same (config, world). Rejects (completed=false, stop_reason set)
  /// on world-digest mismatch or a malformed payload — the fleet is never
  /// partially attached.
  SoakResult resume(const deploy::ScenarioWorld& world, const Checkpoint& ckpt);

 private:
  SoakResult drive(deploy::ReplaySession& session, const deploy::ScenarioWorld& world,
                   std::uint64_t start_segment);

  SoakOptions opts_;
};

}  // namespace sos::soak
