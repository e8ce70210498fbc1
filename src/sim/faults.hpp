// Disaster-realism fault injection (ROADMAP item 3). A FaultPlan compiles a
// declarative FaultPlanConfig into deterministic per-run fault machinery:
//
//   * per-link loss/jitter/asymmetry profiles with jitter-spike and
//     disconnect-window schedules, injected into MpcNetwork delivery,
//   * node churn — battery death at a scheduled time, reboot-with-store-loss
//     through the middleware's detach()/attach() seam,
//   * scripted partition-and-heal timelines (the area splits into isolated
//     groups for a window, then heals),
//   * adversarial node roles: flooder, blackhole/grayhole forwarder,
//     forged-signature storm.
//
// Determinism contract: every fault draw is derived via util::derive_seed
// over (scenario seed, fault stream, node/link id, frame timestamp), never
// from execution order. Trace-reshaping faults (churn down-windows,
// partitions, disconnect windows) are applied as a pure transformation of
// the recorded ContactTrace, so the single-scheduler reference and the
// strand replay engine see the same faulted world; per-frame faults key
// their draws on (link, exact send timestamp, same-timestamp sequence
// number), which both reproduce because a given (link, timestamp) occurs
// inside exactly one task with identical FIFO event order. Metrics are
// therefore bitwise identical at any --jobs/--subepisode-jobs count (pinned
// by ctest -L fault).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace sos::sim {

/// Half-open time window [start, end) in sim seconds.
struct FaultWindow {
  util::SimTime start = 0;
  util::SimTime end = 0;
};

/// Degraded-link profile applied to every link of the scenario.
struct LinkFaultProfile {
  /// Per-frame drop probability in the forward direction (lower node id ->
  /// higher node id).
  double loss_p = 0.0;
  /// Reverse-direction drop probability; < 0 means symmetric (use loss_p).
  /// Asymmetric links model the common disaster pathology of one damaged
  /// antenna: acks flow, data does not.
  double loss_p_reverse = -1.0;
  /// Baseline jitter: each frame occupies the medium up to this many extra
  /// seconds (uniform), modeling MAC-level retransmissions. Extending the
  /// serialization (instead of delaying one delivery) preserves the
  /// reliable-in-order contract the session layer's counter nonces need.
  double jitter_max_s = 0.0;
  /// Windows of elevated jitter (aftershock congestion spikes).
  std::vector<FaultWindow> jitter_spikes;
  double jitter_spike_max_s = 0.0;
  /// Global radio-dead windows (infrastructure interference sweeps): no
  /// contact survives inside them.
  std::vector<FaultWindow> disconnects;

  bool active() const {
    return loss_p > 0 || loss_p_reverse > 0 || jitter_max_s > 0 ||
           (!jitter_spikes.empty() && jitter_spike_max_s > 0) || !disconnects.empty();
  }
};

/// One battery-death / reboot cycle: the node is dark in [down_at, up_at)
/// and power-cycles at up_at.
struct NodeChurnEvent {
  std::uint32_t node = 0;
  util::SimTime down_at = 0;
  util::SimTime up_at = 0;
  /// Reboot-with-store-loss: the persisted bundle store does not survive.
  bool lose_store = true;
  /// The session-resumption cache is also lost (flash wiped, not just a
  /// crash): the next contact must pay a full handshake.
  bool lose_resume_cache = false;
};

/// Scripted partition-and-heal: for the window, nodes in different groups
/// (node id mod `groups`, matching the round-robin community assignment)
/// cannot make contact.
struct PartitionWindow {
  FaultWindow window;
  std::size_t groups = 2;
};

enum class AdversaryRole : std::uint8_t {
  Honest = 0,
  /// Publishes junk posts at flood_posts_per_hour (store/bandwidth DoS).
  Flooder,
  /// Requests everything, serves and advertises nothing (a sink).
  Blackhole,
  /// Participates normally but its radio silently drops a fraction of its
  /// outbound frames — promised forwards die on the air.
  Grayhole,
  /// Flooder whose bundles carry corrupted signatures (signature storm):
  /// free spread when verification is off, pure rejection load when on.
  Forger,
};

const char* to_string(AdversaryRole role);

struct AdversaryMix {
  double flooder_frac = 0.0;
  double blackhole_frac = 0.0;
  double grayhole_frac = 0.0;
  double forger_frac = 0.0;
  /// Probability a grayhole's outbound frame survives.
  double grayhole_forward_p = 0.5;
  /// Junk-publish rate for flooders and forgers.
  double flood_posts_per_hour = 20.0;

  double fraction_sum() const {
    return flooder_frac + blackhole_frac + grayhole_frac + forger_frac;
  }
  bool active() const { return fraction_sum() > 0; }
};

/// Declarative fault plan — a first-class scenario/sweep dimension
/// (ScenarioConfig::faults, ScenarioVariant::faults). Default-constructed
/// == no faults, bit-identical to the pre-fault engine.
struct FaultPlanConfig {
  LinkFaultProfile link;
  std::vector<NodeChurnEvent> churn;
  std::vector<PartitionWindow> partitions;
  AdversaryMix adversaries;

  bool any() const {
    return link.active() || !churn.empty() || !partitions.empty() || adversaries.active();
  }
  /// True when the plan changes which contacts exist (churn, partitions,
  /// disconnect windows) — these are applied by transforming the recorded
  /// contact trace, so faulted runs always replay a recorded world.
  bool reshapes_trace() const {
    return !churn.empty() || !partitions.empty() || !link.disconnects.empty();
  }

  /// Every reason this plan is invalid for a scenario of `nodes` nodes over
  /// `horizon_s` seconds (empty == valid): probabilities outside [0, 1],
  /// adversary fractions summing to >= 1, windows outside the horizon or
  /// inverted, overlapping churn cycles on one node, partition group counts
  /// < 2, churn events naming nonexistent nodes.
  std::vector<std::string> validate(double horizon_s, std::size_t nodes) const;
};

/// Verdict for one frame entering a link.
struct FrameFault {
  bool drop = false;
  double extra_busy_s = 0.0;  // added medium occupancy (jitter)
};

/// Compiled, immutable fault plan for one run. Thread-safe: all queries are
/// const and derive their randomness from (seed, ids, time) on the spot, so
/// strand workers can share one instance.
class FaultPlan {
 public:
  FaultPlan(const FaultPlanConfig& config, std::uint64_t scenario_seed, std::size_t nodes);

  const FaultPlanConfig& config() const { return config_; }
  bool any() const { return config_.any(); }
  bool reshapes_trace() const { return config_.reshapes_trace(); }

  /// Pure trace transformation: clip every contact against the down-windows
  /// of its endpoints, partition windows separating them, and the global
  /// disconnect windows. Both replay engines run the result, which is what
  /// keeps trace-reshaping faults engine-invariant for free.
  ContactTrace apply(const ContactTrace& trace) const;

  /// Per-frame verdict for the `seq`-th frame the (from, to) link carries at
  /// exactly time `now`. Deterministic in the arguments alone.
  FrameFault frame_fault(std::uint32_t from, std::uint32_t to, util::SimTime now,
                         std::uint64_t seq) const;
  /// True when frame_fault can ever return something non-trivial (lets the
  /// network skip per-frame work for plans with only trace-reshaping
  /// faults).
  bool frame_faults_active() const { return frame_faults_active_; }

  AdversaryRole role(std::uint32_t node) const;
  bool node_down(std::uint32_t node, util::SimTime t) const;
  const std::vector<NodeChurnEvent>& churn_for(std::uint32_t node) const;

  /// Junk-publish schedule for a flooder/forger over the horizon (empty for
  /// other roles). Poisson arrivals from the node's own derived stream;
  /// times inside the node's own down-windows are filtered out.
  std::vector<util::SimTime> flood_times(std::uint32_t node, util::SimTime horizon) const;

 private:
  FaultPlanConfig config_;
  std::uint64_t seed_ = 0;
  bool frame_faults_active_ = false;
  std::vector<AdversaryRole> roles_;
  std::vector<std::vector<NodeChurnEvent>> churn_by_node_;
  static const std::vector<NodeChurnEvent> kNoChurn;
};

}  // namespace sos::sim
