// One measured scenario run: record the world, build the ReplaySession,
// replay to the horizon (segmented at daily quiescent cuts with an
// in-memory checkpoint round trip where the workload asks for it) and
// finish. Every public call is wrapped in a span; the phase spans are also
// how the end-to-end times are taken.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/verify_memo.hpp"
#include "deploy/replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace sosbench {

/// Process user+sys CPU seconds (all threads).
double process_cpu_s();

struct ReplayMeasure {
  double wall_s = 0;         // set-up start to the end of finish()
  double setup_s = 0;        // record_world + ReplaySession construction
  double cpu_s = 0;          // process CPU over the same interval
  double replay_s = 0;       // summed advance_to wall time
  double replay_cpu_s = 0;   // process CPU over the advance_to calls
  double checkpoint_s = 0;   // summed checkpoint round trips
  std::size_t segments = 0;  // advance_to calls
  std::size_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;  // largest encoded checkpoint
  std::size_t memo_verdicts = 0;       // distinct verdicts in the caller-owned memo
  std::uint64_t bundles_resident = 0;  // bundles in all stores after finish()
  sos::deploy::ScenarioResult result;
  std::string fingerprint;
  std::vector<std::string> errors;  // failed output checks
};

/// A finished run. The world, memo and session stay alive so the traced run
/// can probe per-operation costs on the workload's own data.
struct Replay {
  sos::deploy::ScenarioConfig config;
  std::shared_ptr<const sos::deploy::ScenarioWorld> world;
  std::unique_ptr<sos::crypto::VerifyMemo> memo;
  std::unique_ptr<sos::deploy::ReplaySession> session;  // after world, memo
  std::vector<const TimedScheme*> schemes;  // empty unless routing is timed
  Tracer tracer;
  int root = -1;  // span covering the whole run
  ReplayMeasure m;
};

/// Run workload `w` under `social`. With `timed_routing`, every node's scheme
/// is wrapped in a TimedScheme before the first event (the traced run).
std::unique_ptr<Replay> run_replay(const Workload& w, sos::graph::Digraph social,
                                   bool timed_routing);

/// Set-up only (record_world + ReplaySession construction), in seconds.
double measure_setup(const Workload& w, sos::graph::Digraph social);

/// Canonical text of what a run simulated: every NodeStats total, the wire
/// counters and the oracle's post/delivery/carry counts.
std::string fingerprint(const sos::deploy::ScenarioResult& r);

}  // namespace sosbench
