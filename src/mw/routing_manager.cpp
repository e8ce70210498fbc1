#include "mw/routing_manager.hpp"

#include <cassert>

#include "util/codec.hpp"

namespace sos::mw {

RoutingManager::RoutingManager(sim::Scheduler& sched, MessageManager& msgs, NodeStats& stats,
                               std::unique_ptr<RoutingScheme> scheme)
    : sched_(&sched), msgs_(msgs), stats_(stats), scheme_(std::move(scheme)) {
  msgs_.on_peer_advert = [this](sim::PeerId peer,
                                const std::map<pki::UserId, std::uint32_t>& advert) {
    handle_advert(peer, advert);
  };
  msgs_.on_session_ready = [this](sim::PeerId peer, const pki::UserId& uid) {
    handle_session_ready(peer, uid);
  };
  msgs_.on_session_down = [this](sim::PeerId peer) { peers_.erase(peer); };
  msgs_.on_summary = [this](sim::PeerId peer, const SummaryFrame& s) { handle_summary(peer, s); };
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
  w.varint(subscriptions_.size());
  for (const auto& uid : subscriptions_) w.raw(uid.view());
  w.u8(push_pending_ ? 1 : 0);
  w.f64(push_at_);
  w.f64(next_maintenance_at_);
  {
    util::Writer sub;
    scheme_->save_state(sub);
    w.bytes(sub.take());
  }
}

bool RoutingManager::load_state(util::Reader& r) {
  assert(sched_ == nullptr);
  std::uint64_t n = r.varint();
  std::set<pki::UserId> subs;
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    pki::UserId uid;
    uid.bytes = r.raw_array<pki::kUserIdSize>();
    subs.insert(uid);
  }
  bool push_pending = r.u8() != 0;
  double push_at = r.f64();
  double next_maintenance_at = r.f64();
  util::Bytes scheme_blob = r.bytes();
  if (!r.ok()) return false;
  {
    util::Reader sub{util::ByteView(scheme_blob)};
    if (!scheme_->load_state(sub) || !sub.done()) return false;
  }
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
    for (sim::PeerId peer : msgs_.secure_peers()) msgs_.send_summary(peer, build_summary());
  });
}

void RoutingManager::handle_advert(sim::PeerId peer,
                                   const std::map<pki::UserId, std::uint32_t>& advert) {
  if (scheme_->should_connect(ctx(), advert)) msgs_.adhoc().connect(peer);
}

void RoutingManager::handle_session_ready(sim::PeerId peer, const pki::UserId& uid) {
  PeerView view;
  view.uid = uid;
  peers_[peer] = view;
  scheme_->on_encounter(ctx(), uid);
  msgs_.send_summary(peer, build_summary());
}

void RoutingManager::handle_summary(sim::PeerId peer, const SummaryFrame& summary) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;  // summary before the session registered
  it->second.summary = summary;
  scheme_->on_peer_blob(it->second.uid, summary.scheme_blob);
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

  std::vector<bundle::Bundle> to_send;
  for (const auto& [uid, since] : request.by_publisher) {
    for (auto& b : msgs_.store().newer_than(uid, since)) to_send.push_back(std::move(b));
  }
  for (const auto& id : request.by_id) {
    auto b = msgs_.store().get(id);
    if (b) to_send.push_back(std::move(*b));
  }
  for (const auto& b : to_send) {
    if (msgs_.already_sent(peer, b.id())) continue;
    if (!scheme_->may_send(ctx(), b, view)) continue;
    std::uint32_t copies = scheme_->copies_to_send(ctx(), b, view);
    if (msgs_.send_bundle(peer, b, copies)) scheme_->on_sent(ctx(), b, view);
  }
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
    auto stored = msgs_.store().get(id);
    if (stored) on_carry(*stored);
  }
  if (deliver) {
    ++stats_.deliveries;
    if (on_deliver) {
      auto stored = msgs_.store().get(id);
      if (stored) on_deliver(*stored, origin_cert);
    }
  }
  refresh_advertisement();
  push_summaries();  // co-located peers learn about the new bundle now
}

}  // namespace sos::mw
