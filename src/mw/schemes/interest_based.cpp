#include "mw/schemes/interest_based.hpp"

namespace sos::mw {

std::map<pki::UserId, std::uint32_t> InterestBasedScheme::advertisement(
    const RoutingContext& ctx) {
  // Everything carried is, by construction, either self-authored or from a
  // subscribed publisher — advertise it all, plus "mail waiting" entries
  // keyed by destination for carried unicast bundles.
  auto ad = ctx.store().summary();
  RoutingContext::merge_max(ad, ctx.unicast_dest_summary());
  return ad;
}

bool InterestBasedScheme::should_connect(
    const RoutingContext& ctx, const std::map<pki::UserId, std::uint32_t>& advertised) {
  // Connect when the peer advertises something newer from a publisher this
  // user follows (Fig 2b: Bob is interested in Alice's messages), or when
  // it signals mail waiting for this user.
  for (const auto& [uid, num] : advertised) {
    if (ctx.subscribed_to(uid) && num > ctx.max_held(uid)) return true;
    if (uid == ctx.self()) return true;
  }
  return false;
}

RequestPlan InterestBasedScheme::plan_requests(const RoutingContext& ctx, const PeerView& peer) {
  RequestPlan plan;
  ctx.for_each_ahead(peer.summary.entries, true,
                     [&plan](const pki::UserId& uid, std::uint32_t held) {
                       plan.by_publisher.emplace_back(uid, held);
                     });
  // Unicast addressed to this user is always interesting.
  for (const auto& u : peer.summary.unicast)
    if (u.dest == ctx.self() && !ctx.store().contains(u.id)) plan.by_id.push_back(u.id);
  return plan;
}

bool InterestBasedScheme::may_send(const RoutingContext&, const bundle::Bundle& b,
                                   const PeerView& peer) {
  // Peers only request publishers they follow, so posts may flow; unicast
  // only goes to its destination under IB.
  if (b.is_unicast()) return b.dest == peer.uid;
  return true;
}

bool InterestBasedScheme::should_carry(const RoutingContext& ctx, const bundle::Bundle& b) {
  // Become a forwarder only for publishers this user subscribes to.
  return !b.is_unicast() && ctx.subscribed_to(b.origin);
}

}  // namespace sos::mw
