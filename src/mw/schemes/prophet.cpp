#include "mw/schemes/prophet.hpp"

#include <cmath>

namespace sos::mw {

void ProphetScheme::age(util::SimTime now) {
  if (now <= last_age_) return;
  double units = (now - last_age_) / params_.age_unit_s;
  double factor = std::pow(params_.gamma, units);
  // Decay-and-prune: entries falling below the floor leave the table
  // entirely, so month-scale idle periods cannot accumulate denormal
  // predictabilities (or their summary-blob bytes).
  for (auto it = pred_.begin(); it != pred_.end();) {
    it->second *= factor;
    if (it->second < params_.p_floor) {
      it = pred_.erase(it);
    } else {
      ++it;
    }
  }
  last_age_ = now;
}

void ProphetScheme::on_encounter(const RoutingContext& ctx, const pki::UserId& peer) {
  age(ctx.now());
  double& p = pred_[peer];
  p = p + (1.0 - p) * params_.p_init;  // direct boost
}

void ProphetScheme::on_peer_blob(const pki::UserId& peer, util::ByteView blob) {
  Table table;
  if (!util::decode_into(blob, util::bounded(table, kMaxBlobEntries))) return;
  // Transitive update: P(a,c) = max(P_old, P(a,b) * P(b,c) * beta).
  // Candidates below the floor never enter the table — the old code's
  // `pred_[dest]` default-constructed a permanent 0.0 entry for every
  // destination any peer had ever heard of, an unbounded table at month
  // horizons.
  double p_ab = pred_.count(peer) ? pred_[peer] : 0.0;
  for (const auto& [dest, p_bc] : table) {
    if (dest == peer) continue;
    double candidate = p_ab * p_bc * params_.beta;
    if (candidate < params_.p_floor) continue;
    auto [it, inserted] = pred_.try_emplace(dest, candidate);
    if (!inserted && candidate > it->second) it->second = candidate;
  }
  peer_tables_[peer] = std::move(table);
}

util::Bytes ProphetScheme::summary_blob(const RoutingContext& ctx) {
  age(ctx.now());
  return util::encode(pred_);
}

void ProphetScheme::save_state(util::Writer& w) const {
  util::put(w, *this);
}

bool ProphetScheme::load_state(util::Reader& r) {
  ProphetScheme next(params_);
  util::get(r, next);
  if (!r.ok()) return false;
  *this = std::move(next);
  return true;
}

double ProphetScheme::predictability(const pki::UserId& dest) const {
  auto it = pred_.find(dest);
  return it == pred_.end() ? 0.0 : it->second;
}

double ProphetScheme::peer_predictability(const pki::UserId& peer,
                                          const pki::UserId& dest) const {
  auto it = peer_tables_.find(peer);
  if (it == peer_tables_.end()) return 0.0;
  auto jt = it->second.find(dest);
  return jt == it->second.end() ? 0.0 : jt->second;
}

std::map<pki::UserId, std::uint32_t> ProphetScheme::advertisement(const RoutingContext& ctx) {
  return ctx.store().summary();
}

bool ProphetScheme::should_connect(const RoutingContext&,
                                   const std::map<pki::UserId, std::uint32_t>&) {
  // Every encounter is valuable: it updates predictabilities and may open a
  // forwarding opportunity.
  return true;
}

RequestPlan ProphetScheme::plan_requests(const RoutingContext& ctx, const PeerView& peer) {
  RequestPlan plan;
  for (const auto& u : peer.summary.unicast) {
    if (ctx.store().contains(u.id)) continue;
    if (u.dest == ctx.self()) {
      plan.by_id.push_back(u.id);
      continue;
    }
    // Pull the bundle if we are a better carrier than the current one.
    if (predictability(u.dest) > peer_predictability(peer.uid, u.dest)) {
      plan.by_id.push_back(u.id);
    }
  }
  return plan;
}

bool ProphetScheme::may_send(const RoutingContext&, const bundle::Bundle& b,
                             const PeerView& peer) {
  if (!b.is_unicast()) return false;  // PRoPHET instance handles unicast only
  if (b.dest == peer.uid) return true;
  return peer_predictability(peer.uid, b.dest) > predictability(b.dest);
}

bool ProphetScheme::should_carry(const RoutingContext&, const bundle::Bundle& b) {
  return b.is_unicast();
}

}  // namespace sos::mw
