#include "mw/schemes/epidemic.hpp"

namespace sos::mw {

std::map<pki::UserId, std::uint32_t> EpidemicScheme::advertisement(const RoutingContext& ctx) {
  auto ad = ctx.store().summary();
  RoutingContext::merge_max(ad, ctx.unicast_dest_summary());
  return ad;
}

bool EpidemicScheme::should_connect(const RoutingContext& ctx,
                                    const std::map<pki::UserId, std::uint32_t>& advertised) {
  for (const auto& [uid, num] : advertised)
    if (num > ctx.max_held(uid)) return true;
  return false;
}

RequestPlan EpidemicScheme::plan_requests(const RoutingContext& ctx, const PeerView& peer) {
  RequestPlan plan;
  ctx.for_each_ahead(peer.summary.entries, false,
                     [&plan](const pki::UserId& uid, std::uint32_t held) {
                       plan.by_publisher.emplace_back(uid, held);
                     });
  return plan;
}

bool EpidemicScheme::may_send(const RoutingContext&, const bundle::Bundle&, const PeerView&) {
  return true;  // replicate to anyone who asks
}

bool EpidemicScheme::should_carry(const RoutingContext&, const bundle::Bundle&) {
  return true;  // carry everything
}

}  // namespace sos::mw
