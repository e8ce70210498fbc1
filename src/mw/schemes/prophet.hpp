// PRoPHET (Lindgren et al., RFC 6693 style) for unicast bundles: nodes
// maintain per-destination delivery predictabilities updated on encounters
// (direct boost, aging, transitivity) and forward a bundle only to peers
// with a higher predictability for its destination. Predictability tables
// travel in the summary's scheme blob. Demonstrates a third-party research
// scheme plugging into the routing manager without touching blue layers.
#pragma once

#include <map>

#include "mw/routing.hpp"

namespace sos::mw {

struct ProphetParams {
  double p_init = 0.75;   // direct-encounter boost
  double beta = 0.25;     // transitivity weight
  double gamma = 0.98;    // aging factor per time unit
  double age_unit_s = 1800.0;
  /// Predictabilities decayed below this are dropped from the table (and
  /// transitive candidates below it are never inserted). Without a floor a
  /// month-long run ages entries into denormals — gamma^(30d/age_unit) ~=
  /// 5e-13 — that still cost 18 bytes each in every summary blob forever,
  /// and the transitive update used to create permanent 0.0 entries for
  /// every destination any peer had ever heard of. An absent entry and a
  /// floored entry behave identically in every forwarding comparison.
  double p_floor = 1e-9;
};

class ProphetScheme : public RoutingScheme {
 public:
  explicit ProphetScheme(ProphetParams params = {}) : params_(params) {}

  std::string name() const override { return "prophet"; }

  std::map<pki::UserId, std::uint32_t> advertisement(const RoutingContext& ctx) override;
  bool should_connect(const RoutingContext& ctx,
                      const std::map<pki::UserId, std::uint32_t>& advertised) override;
  RequestPlan plan_requests(const RoutingContext& ctx, const PeerView& peer) override;
  bool may_send(const RoutingContext& ctx, const bundle::Bundle& b,
                const PeerView& peer) override;
  bool should_carry(const RoutingContext& ctx, const bundle::Bundle& b) override;

  util::Bytes summary_blob(const RoutingContext& ctx) override;
  void on_peer_blob(const pki::UserId& peer, util::ByteView blob) override;
  void on_encounter(const RoutingContext& ctx, const pki::UserId& peer) override;

  void save_state(util::Writer& w) const override;
  bool load_state(util::Reader& r) override;

  /// Current delivery predictability toward `dest`.
  double predictability(const pki::UserId& dest) const;
  /// Live table size (soak metrics: bounded by the pruning floor).
  std::size_t table_size() const { return pred_.size(); }

  /// Checkpoint layout; the configuration is rebuilt, not saved.
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.last_age_, s.pred_, s.peer_tables_);
  }

 private:
  /// Predictability per destination; the summary blob is one of these.
  using Table = std::map<pki::UserId, double>;
  static constexpr std::uint64_t kMaxBlobEntries = 100'000;

  void age(util::SimTime now);
  double peer_predictability(const pki::UserId& peer, const pki::UserId& dest) const;

  ProphetParams params_;
  Table pred_;
  std::map<pki::UserId, Table> peer_tables_;
  util::SimTime last_age_ = 0;
};

}  // namespace sos::mw
