// MultipeerSim: a simulated Apple Multipeer Connectivity surface — the
// substrate the paper's ad hoc manager runs on (DESIGN.md substitution #1).
// It reproduces the MPC state machine the SOS middleware depends on:
//
//   * advertisers publish a plain-text discovery-info dictionary,
//   * browsers in radio range get found/lost callbacks,
//   * invitations are accepted/declined by the advertiser and take
//     `setup_time_s` to establish,
//   * sessions carry length-preserving reliable frames with
//     bandwidth-limited, latency-delayed delivery,
//   * leaving radio range tears the session down and loses in-flight
//     frames (the message manager must cope, exactly as on real MPC).
//
// A wire-sniffer hook lets tests assert that everything on the air is
// ciphertext once the ad hoc manager's encryption is layered on top.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/radio.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"

namespace sos::sim {

using PeerId = std::uint32_t;
/// Plain-text key/value advertisement (paper: UserID -> MessageNumber).
using DiscoveryInfo = std::map<std::string, std::string>;

class FaultPlan;
class MpcNetwork;

/// Per-device endpoint handle. Callbacks are invoked from scheduler events.
class MpcEndpoint {
 public:
  // --- advertising ------------------------------------------------------
  void start_advertising(DiscoveryInfo info);
  void stop_advertising();
  /// Replace the advertised dictionary; browsers in range are re-notified
  /// (models the advertiser restart MPC apps perform on state change).
  void update_discovery_info(DiscoveryInfo info);
  bool advertising() const { return advertising_; }
  const DiscoveryInfo& discovery_info() const { return info_; }

  // --- browsing -----------------------------------------------------------
  void start_browsing();
  void stop_browsing();
  bool browsing() const { return browsing_; }
  std::function<void(PeerId, const DiscoveryInfo&)> on_peer_found;
  std::function<void(PeerId)> on_peer_lost;

  // --- sessions -----------------------------------------------------------
  /// Ask the peer (must be in range and advertising) to open a session.
  void invite(PeerId peer);
  /// Advertiser-side accept hook; default accepts everyone.
  std::function<bool(PeerId)> on_invitation;
  std::function<void(PeerId)> on_connected;
  std::function<void(PeerId)> on_disconnected;
  void disconnect(PeerId peer);
  bool is_connected(PeerId peer) const;
  std::vector<PeerId> connected_peers() const;

  // --- data ----------------------------------------------------------------
  /// Reliable in-order frame. Lost (with the session) if range breaks first.
  void send(PeerId peer, util::Bytes frame);
  std::function<void(PeerId, util::Bytes)> on_receive;

  PeerId id() const { return id_; }

 private:
  friend class MpcNetwork;
  MpcNetwork* net_ = nullptr;
  PeerId id_ = 0;
  bool advertising_ = false;
  bool browsing_ = false;
  DiscoveryInfo info_;
};

/// Owns all endpoints plus the link/session state between them.
class MpcNetwork {
 public:
  MpcNetwork(Scheduler& sched, std::size_t nodes, RadioParams radio = {});

  MpcEndpoint& endpoint(PeerId id) { return endpoints_[id]; }
  std::size_t node_count() const { return endpoints_.size(); }
  Scheduler& scheduler() { return sched_; }
  const RadioParams& radio() const { return radio_; }

  /// Feed from EncounterDetector: update physical connectivity.
  void set_in_range(PeerId a, PeerId b, bool in_range);
  bool in_range(PeerId a, PeerId b) const;

  /// Wire sniffer for security tests: sees every frame as transmitted.
  std::function<void(PeerId from, PeerId to, const util::Bytes&)> on_wire_frame;

  /// Inject per-frame faults (loss/jitter/grayhole drops) from a compiled
  /// fault plan. The plan must outlive the network; nullptr disables
  /// injection. Drops are counted in frames_dropped_fault() at send time.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

  // --- aggregate statistics (overhead metrics for the benches) -----------
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t frames_lost() const { return frames_lost_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t connections_established() const { return connections_; }
  /// Invitation failures, counted the moment the failure is knowable: an
  /// out-of-range or declined invite immediately, a setup interrupted by
  /// range loss at the range-loss event (not when its now-inert completion
  /// timer fires). Drop-time accounting makes this counter identical
  /// between the single-scheduler reference and the strand replay engine —
  /// a shard discarding stragglers past its last contact end discards only
  /// no-op events.
  std::uint64_t connections_failed() const { return failed_connections_; }
  /// Frames destroyed by injected link faults (loss profile or grayhole
  /// radio), disjoint from frames_lost().
  std::uint64_t frames_dropped_fault() const { return frames_dropped_fault_; }

 private:
  friend class MpcEndpoint;

  struct Link {
    bool connected = false;
    std::uint64_t generation = 0;   // invalidates in-flight traffic on drop
    util::SimTime busy_until = 0;   // serialization of the shared medium
    std::size_t in_flight = 0;
    std::size_t pending_setups = 0;  // invites whose completion timer is armed
    // Per-(link, exact timestamp) frame counter feeding the fault plan's
    // deterministic draw chain; resets whenever the send time advances.
    util::SimTime fault_last_t = -1.0;
    std::uint64_t fault_seq = 0;
  };

  static std::pair<PeerId, PeerId> norm(PeerId a, PeerId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }
  Link& link(PeerId a, PeerId b) { return links_[norm(a, b)]; }

  void do_invite(PeerId from, PeerId to);
  void do_send(PeerId from, PeerId to, util::Bytes frame);
  void drop_session(PeerId a, PeerId b, bool notify);

  Scheduler& sched_;
  RadioParams radio_;
  std::vector<MpcEndpoint> endpoints_;
  std::set<std::pair<PeerId, PeerId>> in_range_;
  std::map<std::pair<PeerId, PeerId>, Link> links_;
  const FaultPlan* fault_plan_ = nullptr;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t connections_ = 0;
  std::uint64_t failed_connections_ = 0;
  std::uint64_t frames_dropped_fault_ = 0;
};

}  // namespace sos::sim
