#include "mw/schemes/adversary.hpp"

namespace sos::mw {

std::map<pki::UserId, std::uint32_t> BlackholeScheme::advertisement(const RoutingContext&) {
  return {};
}

bool BlackholeScheme::should_connect(const RoutingContext&,
                                     const std::map<pki::UserId, std::uint32_t>& advertised) {
  return !advertised.empty();
}

RequestPlan BlackholeScheme::plan_requests(const RoutingContext& ctx, const PeerView& peer) {
  RequestPlan plan;
  ctx.for_each_ahead(peer.summary.entries, false,
                     [&plan](const pki::UserId& uid, std::uint32_t held) {
                       plan.by_publisher.emplace_back(uid, held);
                     });
  return plan;
}

bool BlackholeScheme::may_send(const RoutingContext&, const bundle::Bundle&, const PeerView&) {
  return false;
}

bool BlackholeScheme::should_carry(const RoutingContext&, const bundle::Bundle&) {
  return true;
}

}  // namespace sos::mw
