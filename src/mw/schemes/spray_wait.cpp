#include "mw/schemes/spray_wait.hpp"

namespace sos::mw {

std::map<pki::UserId, std::uint32_t> SprayAndWaitScheme::advertisement(
    const RoutingContext& ctx) {
  auto ad = ctx.store().summary();
  RoutingContext::merge_max(ad, ctx.unicast_dest_summary());
  return ad;
}

bool SprayAndWaitScheme::should_connect(
    const RoutingContext& ctx, const std::map<pki::UserId, std::uint32_t>& advertised) {
  for (const auto& [uid, num] : advertised)
    if (num > ctx.max_held(uid)) return true;
  return false;
}

RequestPlan SprayAndWaitScheme::plan_requests(const RoutingContext& ctx, const PeerView& peer) {
  RequestPlan plan;
  ctx.for_each_ahead(peer.summary.entries, false,
                     [&plan](const pki::UserId& uid, std::uint32_t held) {
                       plan.by_publisher.emplace_back(uid, held);
                     });
  return plan;
}

bool SprayAndWaitScheme::peer_is_subscriber(const pki::UserId& peer,
                                            const pki::UserId& publisher) const {
  auto it = peer_subscriptions_.find(peer);
  return it != peer_subscriptions_.end() && it->second.count(publisher) > 0;
}

bool SprayAndWaitScheme::may_send(const RoutingContext& ctx, const bundle::Bundle& b,
                                  const PeerView& peer) {
  if (b.is_unicast()) return b.dest == peer.uid;
  // Delivery to an interested subscriber is always allowed and free.
  if (peer_is_subscriber(peer.uid, b.origin)) return true;
  // Relaying costs copies: only spray while more than one copy remains.
  auto it = copies_.find(b.id());
  std::uint32_t have = it == copies_.end() ? 0 : it->second;
  (void)ctx;
  return have > 1;
}

bool SprayAndWaitScheme::should_carry(const RoutingContext&, const bundle::Bundle&) {
  return true;  // carrying is how both relaying and waiting work
}

util::Bytes SprayAndWaitScheme::summary_blob(const RoutingContext& ctx) {
  // Ship our subscription list so senders can recognize us as a
  // destination (delivery copies are budget-free).
  return util::encode(ctx.subscriptions());
}

void SprayAndWaitScheme::on_peer_blob(const pki::UserId& peer, util::ByteView blob) {
  std::set<pki::UserId> subs;
  if (util::decode_into(blob, util::bounded(subs, kMaxBlobEntries)))
    peer_subscriptions_[peer] = std::move(subs);
}

std::uint32_t SprayAndWaitScheme::copies_to_send(const RoutingContext&, const bundle::Bundle& b,
                                                 const PeerView& peer) {
  if (b.is_unicast() && b.dest == peer.uid) return 0;
  if (peer_is_subscriber(peer.uid, b.origin)) return 0;  // delivery copy
  auto it = copies_.find(b.id());
  std::uint32_t have = it == copies_.end() ? 0 : it->second;
  return have > 1 ? have / 2 : 0;  // binary spray: hand over floor(half)
}

void SprayAndWaitScheme::on_sent(const RoutingContext& ctx, const bundle::Bundle& b,
                                 const PeerView& peer) {
  std::uint32_t given = copies_to_send(ctx, b, peer);
  if (given == 0) return;
  auto it = copies_.find(b.id());
  if (it != copies_.end()) it->second -= given;  // keep ceil(half)
}

void SprayAndWaitScheme::on_received_copies(const bundle::BundleId& id, std::uint32_t copies) {
  copies_[id] = copies;
}

void SprayAndWaitScheme::on_published(const bundle::BundleId& id) {
  copies_[id] = initial_copies_;
}

void SprayAndWaitScheme::save_state(util::Writer& w) const {
  util::put(w, *this);
}

bool SprayAndWaitScheme::load_state(util::Reader& r) {
  SprayAndWaitScheme next(initial_copies_);
  util::get(r, next);
  if (!r.ok()) return false;
  *this = std::move(next);
  return true;
}

std::uint32_t SprayAndWaitScheme::copies_left(const bundle::BundleId& id) const {
  auto it = copies_.find(id);
  return it == copies_.end() ? 0 : it->second;
}

}  // namespace sos::mw
