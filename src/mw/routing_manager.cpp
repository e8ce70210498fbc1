#include "mw/routing_manager.hpp"

#include <cassert>

#include "util/codec.hpp"

namespace sos::mw {

RoutingManager::RoutingManager(sim::Scheduler& sched, MessageManager& msgs, NodeStats& stats,
                               std::unique_ptr<RoutingScheme> scheme)
    : sched_(&sched), msgs_(msgs), stats_(stats), scheme_(std::move(scheme)) {
  msgs_.on_peer_advert = [this](sim::PeerId peer, const Advert::Entries& advert) {
    handle_advert(peer, advert);
  };
  msgs_.on_session_ready = [this](sim::PeerId peer, const pki::UserId& uid) {
    handle_session_ready(peer, uid);
  };
  msgs_.on_session_down = [this](sim::PeerId peer) { peers_.erase(peer); };
  msgs_.on_summary = [this](sim::PeerId peer, SummaryFrame s) {
    handle_summary(peer, std::move(s));
  };
  msgs_.on_request = [this](sim::PeerId peer, const RequestFrame& r) { handle_request(peer, r); };
  msgs_.on_bundle = [this](sim::PeerId peer, bundle::Bundle b, const pki::Certificate& cert,
                           std::uint32_t copies) {
    handle_bundle(peer, std::move(b), cert, copies);
  };
}

void RoutingManager::set_scheme(std::unique_ptr<RoutingScheme> scheme) {
  scheme_ = std::move(scheme);
  refresh_advertisement();
}

void RoutingManager::follow(const pki::UserId& uid) {
  subscriptions_.insert(uid);
}

void RoutingManager::unfollow(const pki::UserId& uid) {
  subscriptions_.erase(uid);
}

RoutingContext RoutingManager::ctx() const {
  return RoutingContext(msgs_.adhoc().credentials().user_id, subscriptions_, msgs_.store(),
                        sched_->now());
}

void RoutingManager::publish(bundle::Bundle b) {
  bundle::BundleId id = b.id();
  msgs_.store().insert(std::move(b), sched_->now());
  scheme_->on_published(id);
  ++stats_.published;
  refresh_advertisement();
  push_summaries();
}

void RoutingManager::start(util::SimTime maintenance_interval) {
  refresh_advertisement();
  // A non-positive interval disables the periodic sweep (tests drain the
  // event queue to quiescence and must not see self-rescheduling timers).
  maintenance_interval_ = maintenance_interval;
  if (maintenance_interval_ > 0) {
    next_maintenance_at_ = sched_->now() + maintenance_interval_;
    schedule_maintenance();
  }
}

void RoutingManager::schedule_maintenance() {
  maintenance_event_ = sched_->schedule_at(next_maintenance_at_, [this] { maintenance_tick(); });
}

void RoutingManager::maintenance_tick() {
  if (msgs_.store().expire(sched_->now()) > 0) refresh_advertisement();
  next_maintenance_at_ = sched_->now() + maintenance_interval_;
  schedule_maintenance();
}

void RoutingManager::detach() {
  // Ids are shard-local: cancel against the departing scheduler, then reset
  // to the sentinel so a stale id can never be replayed against the next one.
  if (maintenance_interval_ > 0) {
    assert(maintenance_event_ != sim::kInvalidEventId);
    sched_->cancel(maintenance_event_);
    maintenance_event_ = sim::kInvalidEventId;
  }
  if (push_pending_) {
    assert(push_event_ != sim::kInvalidEventId);
    sched_->cancel(push_event_);
    push_event_ = sim::kInvalidEventId;
  }
  sched_ = nullptr;
}

void RoutingManager::attach(sim::Scheduler& sched) {
  sched_ = &sched;
  if (advert_stale_) refresh_advertisement();
  // Deadlines are absolute: the timers fire at exactly the sim times they
  // would have fired on the previous shard.
  if (maintenance_interval_ > 0) schedule_maintenance();
  if (push_pending_) schedule_push();
}

void RoutingManager::save_state(util::Writer& w) const {
  // Quiescent-cut contract: detached (no live timers) and no secure peers.
  assert(sched_ == nullptr && peers_.empty());
  util::put(w, subscriptions_, push_pending_, push_at_, next_maintenance_at_);
  w.framed([&](util::Writer& sub) { scheme_->save_state(sub); });
}

bool RoutingManager::load_state(util::Reader& r) {
  assert(sched_ == nullptr);
  std::set<pki::UserId> subs;
  bool push_pending = false;
  double push_at = 0;
  double next_maintenance_at = 0;
  util::get(r, subs, push_pending, push_at, next_maintenance_at);
  util::Reader scheme_state = r.framed();
  if (!r.ok()) return false;
  if (!scheme_->load_state(scheme_state) || !scheme_state.done()) return false;
  subscriptions_ = std::move(subs);
  push_pending_ = push_pending;
  push_event_ = sim::kInvalidEventId;
  push_at_ = push_at;
  next_maintenance_at_ = next_maintenance_at;
  return true;
}

void RoutingManager::refresh_advertisement() {
  advert_stale_ = sched_ == nullptr;
  if (advert_stale_) return;
  msgs_.adhoc().set_advertisement(scheme_->advertisement(ctx()));
}

SummaryFrame RoutingManager::build_summary() {
  SummaryFrame summary;
  summary.entries = scheme_->advertisement(ctx());
  if (msgs_.store().unicast_count() > 0) {
    for (const auto* stored : msgs_.store().all()) {
      if (stored->bundle.is_unicast())
        summary.unicast.push_back({stored->bundle.id(), stored->bundle.dest});
    }
  }
  summary.scheme_blob = scheme_->summary_blob(ctx());
  return summary;
}

void RoutingManager::push_summaries() {
  // Coalesce: a burst of arrivals (a whole batch pulled from one peer)
  // results in a single refreshed summary to each co-located peer, not one
  // per bundle — without this, dense clusters gossip quadratically.
  if (push_pending_) return;
  push_pending_ = true;
  push_at_ = sched_->now() + push_debounce_s_;
  schedule_push();
}

void RoutingManager::schedule_push() {
  push_event_ = sched_->schedule_at(push_at_, [this] {
    push_pending_ = false;
    push_event_ = sim::kInvalidEventId;  // consumed by firing
    // One summary serves every peer: all of them would get the same bytes
    // (PRoPHET's blob ages once per timestamp, so a rebuild at the same
    // instant changes nothing). With no peer, nothing is built at all.
    std::vector<sim::PeerId> peers = msgs_.secure_peers();
    if (!peers.empty()) msgs_.send_summary(peers, build_summary());
  });
}

void RoutingManager::handle_advert(sim::PeerId peer, const Advert::Entries& advert) {
  if (scheme_->should_connect(ctx(), advert)) msgs_.adhoc().connect(peer);
}

void RoutingManager::handle_session_ready(sim::PeerId peer, const pki::UserId& uid) {
  PeerView view;
  view.uid = uid;
  peers_[peer] = view;
  scheme_->on_encounter(ctx(), uid);
  msgs_.send_summary({&peer, 1}, build_summary());
}

void RoutingManager::handle_summary(sim::PeerId peer, SummaryFrame summary) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;  // summary before the session registered
  it->second.summary = std::move(summary);
  scheme_->on_peer_blob(it->second.uid, it->second.summary.scheme_blob);
  RequestPlan plan = scheme_->plan_requests(ctx(), it->second);
  if (plan.empty()) return;
  RequestFrame req;
  req.by_publisher = std::move(plan.by_publisher);
  req.by_id = std::move(plan.by_id);
  msgs_.send_request(peer, req);
}

void RoutingManager::handle_request(sim::PeerId peer, const RequestFrame& request) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  const PeerView& view = it->second;
  const RoutingContext context = ctx();

  // The request is served in place: the walks hold iterators into the
  // store, and each bundle is read where it is held. That is sound because
  // nothing a send calls changes the store synchronously — sealing, the
  // network's scheduled delivery and the scheme's on_sent hook leave it
  // alone — so the walk sees exactly the snapshot a copy would have held.
  // offer() asserts it after every send.
  for (const auto& [uid, since] : request.by_publisher)
    offer_range(peer, context, view, msgs_.store().newer_than(uid, since));
  for (const auto& id : request.by_id) {
    if (msgs_.sent_to(peer).count(id) > 0) continue;
    if (const bundle::StoredBundle* stored = msgs_.store().find(id))
      offer(peer, context, view, stored->bundle);
  }
}

void RoutingManager::offer_range(sim::PeerId peer, const RoutingContext& ctx,
                                 const PeerView& view, bundle::BundleStore::HeldRange range) {
  if (range.empty()) return;
  // The sent set and the store are both in BundleId order, so one merge
  // skips what this session already carried at one iterator step each.
  // Sends insert behind the walk (the id just offered), so the sent
  // iterator stays valid and ahead of every insertion.
  const std::set<bundle::BundleId>& sent = msgs_.sent_to(peer);
  auto s = sent.lower_bound(range.begin()->first);
  for (const auto& [id, stored] : range) {
    while (s != sent.end() && *s < id) ++s;
    if (s != sent.end() && *s == id) continue;
    offer(peer, ctx, view, stored.bundle);
  }
}

void RoutingManager::offer(sim::PeerId peer, const RoutingContext& ctx, const PeerView& view,
                           const bundle::Bundle& b) {
  [[maybe_unused]] const std::uint64_t generation = msgs_.store().generation();
  if (!scheme_->may_send(ctx, b, view)) return;
  std::uint32_t copies = scheme_->copies_to_send(ctx, b, view);
  if (msgs_.send_bundle(peer, b, copies)) scheme_->on_sent(ctx, b, view);
  assert(msgs_.store().generation() == generation && "a send changed the store mid-walk");
}

bool RoutingManager::wanted_by_app(const bundle::Bundle& b) const {
  const pki::UserId& self = msgs_.adhoc().credentials().user_id;
  if (b.is_unicast()) return b.dest == self;
  return subscriptions_.count(b.origin) > 0;
}

void RoutingManager::handle_bundle(sim::PeerId peer, bundle::Bundle b,
                                   const pki::Certificate& origin_cert,
                                   std::uint32_t spray_copies) {
  (void)peer;
  if (b.expired(sched_->now())) return;
  // One D2D hop completed.
  if (b.hop_count < 255) ++b.hop_count;

  bundle::BundleId id = b.id();
  bool deliver = wanted_by_app(b);
  bool carry = scheme_->should_carry(ctx(), b) || deliver;
  if (!carry) return;

  bool fresh = msgs_.store().insert(std::move(b), sched_->now());
  if (!fresh) {
    ++stats_.duplicates_ignored;
    return;
  }
  ++stats_.bundles_carried;
  scheme_->on_received_copies(id, spray_copies);
  if (on_carry) {
    // Borrowed, like a request walk: the carry hook only records the
    // bundle, so the held copy stays put across it.
    if (const bundle::StoredBundle* stored = msgs_.store().find(id)) {
      [[maybe_unused]] const std::uint64_t generation = msgs_.store().generation();
      on_carry(stored->bundle);
      assert(msgs_.store().generation() == generation && "on_carry changed the store");
    }
  }
  if (deliver) {
    ++stats_.deliveries;
    if (on_deliver) {
      // A copy: the app may publish from its handler, and a publish can
      // evict the held bundle.
      auto stored = msgs_.store().get(id);
      if (stored) on_deliver(*stored, origin_cert);
    }
  }
  refresh_advertisement();
  push_summaries();  // co-located peers learn about the new bundle now
}

}  // namespace sos::mw
