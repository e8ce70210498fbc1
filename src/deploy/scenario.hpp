// Deployment scenario runner: assembles the whole stack — PKI bootstrap,
// AlleyOop apps over SOS nodes, the MPC-like radio, daily-routine mobility
// over the study area, a Poisson posting workload — and runs it under the
// event scheduler. The default configuration reconstructs the Gainesville
// study of §VI (10 users, ~11 km x 8 km, 7 days, 259 posts, the Fig 4a
// social graph, IB routing); every knob is exposed for the ablations.
// Every run replays a recorded contact trace: record_world runs the
// encounter detector once, then the run replays it.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "deploy/oracle.hpp"
#include "graph/digraph.hpp"
#include "mw/stats.hpp"
#include "sim/faults.hpp"
#include "sim/radio.hpp"
#include "sim/trace.hpp"

namespace sos::crypto {
class VerifyMemo;
}

namespace sos::deploy {

/// A setting that no longer configures anything, kept under its old name
/// only for a caller that must not change yet. It holds nothing and
/// accepts only T{}: assigning any other constant fails to compile,
/// because the converting constructor is consteval.
template <class T>
struct RetiredSetting {
  constexpr RetiredSetting() = default;
  consteval RetiredSetting(T value) {
    if (value != T{}) throw "retired setting: only its default value is accepted";
  }
};

struct ScenarioConfig {
  std::size_t nodes = 10;
  double area_w_m = 11000.0;           // ~11 km (paper)
  double area_h_m = 8000.0;            // ~8 km
  double days = 7.0;                   // TestFlight study length
  std::string scheme = "interest";     // routing scheme under test
  double total_posts_target = 259.0;   // paper: 259 unique messages
  std::uint64_t seed = 42;

  sim::RadioParams radio{};            // 50 m range, p2p-WiFi-class link
  sim::DailyRoutineParams mobility{};  // homes + campus hotspots + sleep
  double encounter_tick_s = 30.0;

  /// First-class community sweep dimensions (copied into `mobility` by the
  /// world recorder, like `area_*`): >= 2 tiles the area into that many
  /// disjoint mobility communities — separate hotspot pools and home
  /// clusters — and `bridge_node_frac` of the nodes commute between them
  /// across days. 1 is the classic single-hotspot-pool city. Community
  /// traces decompose into many independent strand tasks
  /// (sim::ContactDag), which is what makes the strand engine
  /// (ReplayOptions::subepisode_jobs) effective on them.
  std::size_t communities = 1;
  double bridge_node_frac = 0.0;

  /// Session-resumption secret lifetime handed to each node's SosConfig
  /// (0 = every contact pays the full cert-exchange + X25519 handshake).
  double resume_lifetime_s = 86400.0;

  /// Placeholders for the retired batch-verification window: every bundle
  /// is verified synchronously, and nothing reads these. sosbench still
  /// assigns them, and sosbench changes only in its own PR (ROADMAP item 3,
  /// which deletes both).
  RetiredSetting<double> verify_batch_window_s;
  RetiredSetting<bool> verify_batch_adaptive;

  /// Disaster fault-injection plan (sim/faults.hpp): degraded links, node
  /// churn, partition-and-heal timelines, adversarial roles. Default (no
  /// faults) is bit-identical to the pre-fault engine. Trace-reshaping
  /// faults transform the recorded trace at replay time. Use
  /// FaultPlanConfig::validate before sweeping grids.
  sim::FaultPlanConfig faults;

  /// Content-verification ablation (the "unsigned" baseline of the disaster
  /// benches): nodes accept received bundles without certificate/signature
  /// checks. Transport encryption and handshakes are untouched.
  bool verify_signatures = true;

  /// Per-node bundle-store capacity (flooder cells shrink this to make
  /// store-pressure effects visible).
  std::size_t store_capacity = 10000;

  /// Social graph; node i follows node j iff edge (i, j). Defaults to the
  /// reconstructed Fig 4a graph when nodes == 10, otherwise a sampled
  /// campus community of matching density.
  std::optional<graph::Digraph> social;

  /// Posting concentrates in the late afternoon and evening (the usual
  /// social-app activity peak, after the day's gatherings wind down).
  double post_window_start_h = 18.5;
  double post_window_end_h = 23.5;
};

// The network counters a run reports, X(name, source): `name` is the member
// on ScenarioResult (and on every struct that carries them, declared with
// SOS_NET_COUNTER_MEMBER), `source` the sim::MpcNetwork accessor it is read
// from. Table order is checkpoint order, as for SOS_NODE_STATS.
#define SOS_NET_COUNTERS(X)                                                  \
  X(wire_frames, frames_sent)                                                \
  X(wire_bytes, bytes_sent)                                                  \
  X(connections, connections_established)                                    \
  X(connections_failed, connections_failed)  /* declined/out-of-range/broken setups */ \
  X(frames_lost, frames_lost)                /* mid-transfer disconnects */  \
  X(frames_dropped_fault, frames_dropped_fault)  /* injected loss/grayhole drops */

#define SOS_NET_COUNTER_MEMBER(name, source) std::uint64_t name = 0;

/// mw::for_each_stat over the network counters of one or more structs.
template <class F, class... S>
void for_each_net_counter(F&& f, S&... s) {
#define SOS_NET_COUNTER_VISIT(name, source) f(#name, s.name...);
  SOS_NET_COUNTERS(SOS_NET_COUNTER_VISIT)
#undef SOS_NET_COUNTER_VISIT
}

struct ScenarioResult {
  MetricsOracle oracle;
  mw::NodeStats totals;                 // summed over all nodes
  std::uint64_t contacts = 0;           // radio-range encounters
  SOS_NET_COUNTERS(SOS_NET_COUNTER_MEMBER)
  graph::Digraph social;                // the graph actually used
  double simulated_days = 0;
};

/// The deterministic "world" of a scenario — the mobility trajectories and
/// the contact trace the encounter detector produces over them. Everything
/// in it depends only on the world-shaping config fields (nodes, area, days,
/// mobility, communities, radio, encounter tick) and the seed, never on the
/// routing scheme or middleware knobs, so scheme variants of one sweep cell
/// record it once and replay it.
struct ScenarioWorld {
  sim::TrajectoryMobility mobility;
  sim::ContactTrace trace;
};

/// Record a config's world: generate mobility and run one detector pass
/// over the full horizon, capturing the contact trace.
std::shared_ptr<const ScenarioWorld> record_world(const ScenarioConfig& config);

/// How a recorded world is replayed.
struct ReplayOptions {
  /// Share one signature-verdict memo across every node of the replay:
  /// each distinct (key, message, signature) triple pays curve math once
  /// per run instead of once per carrying node. Pure-function memoization —
  /// per-node counters and all metrics are unchanged.
  bool share_verify_memo = true;
  /// Optional externally owned memo (sweep-wide scope): when set (and
  /// share_verify_memo is on), the replay consults/extends this memo
  /// instead of a run-local one. SweepRunner hands every variant of a cell
  /// the same memo — one recorded world produces identical bundles and
  /// certificates per variant, so cross-variant re-verifies collapse too.
  /// Thread-safe; metrics are bitwise identical to the run-local scope.
  crypto::VerifyMemo* memo = nullptr;
  /// > 0: replay on the contact-strand engine with up to this many workers
  /// (never more than a segment has tasks) — the trace is cut into a
  /// sim::ContactDag and each member detaches at its own last contact in a
  /// task, so even dense single-hotspot traces decompose into concurrent
  /// strand tasks. 0: run_scenario replays on its single scheduler (the
  /// reference), a ReplaySession as one fused task per segment ("mono").
  /// Metrics are bitwise identical at every value.
  std::size_t subepisode_jobs = 0;
};

/// Build and run the scenario to completion over `world`'s recorded contact
/// trace (TracePlayer replay; the recorded trajectories serve position
/// lookups). The world must have been recorded from a config with
/// identical world-shaping fields and seed; without one, run_scenario
/// records it first. `replay` selects the engine: the single-scheduler
/// reference at subepisode_jobs == 0, the strand engine otherwise.
ScenarioResult run_scenario(const ScenarioConfig& config,
                            const ScenarioWorld* world = nullptr,
                            const ReplayOptions& replay = {});

/// The §VI configuration (defaults above) with the given scheme and seed.
ScenarioConfig gainesville_config(const std::string& scheme = "interest",
                                  std::uint64_t seed = 42);

/// The social graph run_scenario will use for `config` — the explicit
/// override, the reconstructed Fig 4a graph (10 nodes), or the sampled
/// campus community drawn from the config's own RNG stream. Exposed so
/// graph-characterization benches describe exactly what a sweep simulates.
graph::Digraph scenario_social_graph(const ScenarioConfig& config);

}  // namespace sos::deploy
