// Internal helpers shared by the single-scheduler reference (scenario.cpp)
// and the ReplaySession behind the mono and strand paths (replay.cpp, which
// cuts the trace into a sim::ContactDag of tasks, each on its own scheduler
// shard). Both must consume the scenario RNG streams in exactly the same
// order and assemble byte-identical workloads, so the pieces live here
// rather than being duplicated.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "alleyoop/app.hpp"
#include "crypto/verify_memo.hpp"
#include "deploy/scenario.hpp"
#include "mw/sos_node.hpp"
#include "sim/mobility.hpp"
#include "sim/multipeer.hpp"
#include "util/rng.hpp"

namespace sos::deploy::detail {

/// The per-run fleet: SOS nodes and their AlleyOop apps over one shared
/// cloud backend. Member order mirrors the declaration order the engines
/// always used (destruction: cloud, apps, nodes).
struct Fleet {
  std::vector<std::unique_ptr<mw::SosNode>> nodes;
  std::vector<std::unique_ptr<alleyoop::App>> apps;
  alleyoop::CloudService cloud;
};

/// Construct the fleet against the given substrate. Everything here —
/// device DRBG seed strings, signup order, SosConfig plumbing — is
/// determinism-critical and must be byte-identical on every replay path,
/// which is why it lives in one place. `verify_memo` (optional)
/// is shared across all nodes; `plan` (optional) assigns adversarial
/// behavior per the plan's node roles (blackhole scheme, forged
/// signatures).
void build_fleet(Fleet& fleet, const ScenarioConfig& config, sim::Scheduler& sched,
                 sim::MpcNetwork& net, crypto::VerifyMemo* verify_memo,
                 const sim::FaultPlan* plan);

/// Apply the social graph's follow edges to the apps and return the
/// follower -> publishers map the metrics oracle consumes.
std::map<pki::UserId, std::set<pki::UserId>> wire_follows(Fleet& fleet,
                                                          const graph::Digraph& social);

/// Per-node posting times: Poisson within the daily waking window, scaled
/// so the expected total across nodes matches total_posts_target. Consumes
/// draws from `rng` (the shared workload stream) in node-call order.
std::vector<util::SimTime> posting_times(const ScenarioConfig& config, util::Rng& rng);

/// One entry of a node's merged workload timeline.
struct TimelineEvent {
  util::SimTime t = 0;
  enum class Kind { Post, Flood, Reboot } kind = Kind::Post;
  /// 1-based ordinal within the node's post (or flood) list; posts keep
  /// their unfaulted numbering so surviving posts match across ablations.
  int k = 0;
  const sim::NodeChurnEvent* churn = nullptr;  // Reboot only (plan-owned)
};

/// Per-node chronological timelines of workload posts, adversarial junk
/// publishes (flooder/forger roles), and reboot events (churn up_at). Every
/// replay path schedules each node's timeline strictly in this order:
/// strand shards clamp pre-window events to their start while preserving
/// insertion order, so the single-scheduler relative order survives the
/// clamp only if every path schedules from one merged list. Ties keep
/// Post < Flood < Reboot. Posts inside a down-window are omitted (a dead
/// phone cannot post); reboots at/after the horizon never fire. Consumes
/// the workload stream exactly as the pre-fault engines did. `plan` may be
/// null (plain posting timelines); otherwise it must outlive the result.
std::vector<std::vector<TimelineEvent>> build_timelines(const ScenarioConfig& config,
                                                        util::Rng& workload_rng,
                                                        const sim::FaultPlan* plan);

/// Generate the config's mobility trajectories (record_world). Consumes
/// exactly one fork of the scenario RNG; replay discards that fork, so the
/// graph/workload streams line up with recording.
std::unique_ptr<sim::TrajectoryMobility> build_mobility(const ScenarioConfig& config,
                                                        util::Rng& rng);

/// Social graph selection. Forks the scenario RNG only in the sampled
/// branch, so override/Fig-4a configs leave the stream untouched.
graph::Digraph build_social_graph(const ScenarioConfig& config, util::Rng& rng);

/// a += b for every NodeStats counter (the per-run totals aggregation).
void add_stats(mw::NodeStats& a, const mw::NodeStats& b);

}  // namespace sos::deploy::detail
