// Routing manager — the orange layer's host. Owns the active scheme and
// drives the dissemination protocol of Fig 2b / Fig 3 by consulting it:
// advertise -> (peer browses, connects) -> summary exchange -> request ->
// bundle transfer -> verify -> store -> re-advertise. Schemes can be
// swapped at runtime ("toggle between DTN routing schemes inside the
// application", §VII).
#pragma once

#include <functional>
#include <memory>
#include <set>

#include "mw/message_manager.hpp"
#include "mw/routing.hpp"

namespace sos::mw {

class RoutingManager {
 public:
  RoutingManager(sim::Scheduler& sched, MessageManager& msgs, NodeStats& stats,
                 std::unique_ptr<RoutingScheme> scheme);

  /// Swap the active scheme (the paper's user-facing toggle).
  void set_scheme(std::unique_ptr<RoutingScheme> scheme);
  RoutingScheme& scheme() { return *scheme_; }

  // --- subscriptions (maintained by the application layer) ----------------
  void follow(const pki::UserId& uid);
  void unfollow(const pki::UserId& uid);
  const std::set<pki::UserId>& subscriptions() const { return subscriptions_; }

  /// Application publish entry point: store own bundle, refresh the
  /// advertisement, and push updated summaries to co-located peers.
  void publish(bundle::Bundle b);

  /// Kick off periodic maintenance (store expiry + advertisement refresh).
  void start(util::SimTime maintenance_interval = 600.0);

  // --- scheduler rebinding (partitioned replay) ----------------------------
  /// Cancel the pending maintenance tick / summary push on the current
  /// scheduler, remembering their absolute deadlines.
  void detach();
  /// Re-arm them at the same deadlines on a new scheduler shard, and apply
  /// an advertisement refresh requested while detached.
  void attach(sim::Scheduler& sched);

  // --- checkpointing (soak harness) ----------------------------------------
  /// Serialize subscriptions, timer deadlines and the scheme's mutable state
  /// (as an opaque blob). Only callable at a quiescent cut while detached —
  /// the per-session peer views must already be empty. The maintenance
  /// interval and debounce knobs are configuration and stay with the owner.
  void save_state(util::Writer& w) const;
  /// Mirror of save_state; call while detached (the restored deadlines are
  /// re-armed by the next attach()). Returns false on malformed input
  /// leaving the manager untouched.
  bool load_state(util::Reader& r);

  /// Recompute and install the plain-text advertisement. A detached
  /// manager has no clock or endpoint, so there the refresh is deferred to
  /// the next attach().
  void refresh_advertisement();

  /// Delivered to the application: a verified bundle this user wants
  /// (posts from followed publishers, or unicast addressed to this user).
  std::function<void(const bundle::Bundle&, const pki::Certificate&)> on_deliver;

  /// Fired for every fresh verified bundle this node stores (deliveries and
  /// relayed carries alike) — the evaluation oracle's dissemination hook.
  std::function<void(const bundle::Bundle&)> on_carry;

 private:
  RoutingContext ctx() const;
  void handle_advert(sim::PeerId peer, const Advert::Entries& advert);
  void handle_session_ready(sim::PeerId peer, const pki::UserId& uid);
  void handle_summary(sim::PeerId peer, SummaryFrame summary);
  void handle_request(sim::PeerId peer, const RequestFrame& request);
  void handle_bundle(sim::PeerId peer, bundle::Bundle b, const pki::Certificate& origin_cert,
                     std::uint32_t spray_copies);
  SummaryFrame build_summary();
  /// Offer the held bundles in `range` the peer has not been sent on this
  /// session, merging the walk against the session's sent set.
  void offer_range(sim::PeerId peer, const RoutingContext& ctx, const PeerView& view,
                   bundle::BundleStore::HeldRange range);
  /// The scheme's send decision for one requested, not yet sent bundle.
  void offer(sim::PeerId peer, const RoutingContext& ctx, const PeerView& view,
             const bundle::Bundle& b);
  void push_summaries();
  void maintenance_tick();
  void schedule_maintenance();
  void schedule_push();
  bool wanted_by_app(const bundle::Bundle& b) const;

  sim::Scheduler* sched_;  // rebindable: see detach()/attach()
  MessageManager& msgs_;
  // sos-lint: allow(seam-exempt) reference to node-lifetime stats storage,
  // no scheduler coupling.
  NodeStats& stats_;
  std::unique_ptr<RoutingScheme> scheme_;
  std::set<pki::UserId> subscriptions_;
  // sos-lint: allow(seam-exempt) keyed by live sessions, torn down on
  // session drop (not detach): secure peer state survives shard boundaries
  // by design, same lifecycle as MessageManager::sent_this_session_.
  std::map<sim::PeerId, PeerView> peers_;  // secure peers with summaries
  bool push_pending_ = false;              // coalesces summary gossip
  // sos-lint: allow(seam-exempt) scenario-constant debounce knob.
  util::SimTime push_debounce_s_ = 1.0;
  util::SimTime push_at_ = 0.0;            // absolute deadline while pending
  sim::EventId push_event_ = sim::kInvalidEventId;  // armed while push_pending_
  util::SimTime maintenance_interval_ = 0.0;  // 0 = periodic sweep disabled
  util::SimTime next_maintenance_at_ = 0.0;   // absolute, while interval > 0
  sim::EventId maintenance_event_ = sim::kInvalidEventId;  // armed while interval > 0
  bool advert_stale_ = false;  // refresh requested while detached
};

}  // namespace sos::mw
