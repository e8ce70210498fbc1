// Binary Spray-and-Wait (Spyropoulos et al. 2005), adapted to SOS's
// publish/subscribe model: each bundle starts with L copies at its source;
// a relay handing the bundle to another relay gives away half its budget;
// a relay down to one copy only delivers to interested subscribers (the
// "wait" phase). Interested subscribers receive delivery copies that do
// not consume budget. Added here as the configurable third scheme the
// paper's modular routing manager invites.
#pragma once

#include <map>
#include <set>

#include "mw/routing.hpp"

namespace sos::mw {

class SprayAndWaitScheme : public RoutingScheme {
 public:
  explicit SprayAndWaitScheme(std::uint32_t initial_copies = 8)
      : initial_copies_(initial_copies) {}

  std::string name() const override { return "spray"; }

  std::map<pki::UserId, std::uint32_t> advertisement(const RoutingContext& ctx) override;
  bool should_connect(const RoutingContext& ctx,
                      const std::map<pki::UserId, std::uint32_t>& advertised) override;
  RequestPlan plan_requests(const RoutingContext& ctx, const PeerView& peer) override;
  bool may_send(const RoutingContext& ctx, const bundle::Bundle& b,
                const PeerView& peer) override;
  bool should_carry(const RoutingContext& ctx, const bundle::Bundle& b) override;

  util::Bytes summary_blob(const RoutingContext& ctx) override;
  void on_peer_blob(const pki::UserId& peer, util::ByteView blob) override;
  std::uint32_t copies_to_send(const RoutingContext& ctx, const bundle::Bundle& b,
                               const PeerView& peer) override;
  void on_sent(const RoutingContext& ctx, const bundle::Bundle& b,
               const PeerView& peer) override;
  void on_received_copies(const bundle::BundleId& id, std::uint32_t copies) override;
  void on_published(const bundle::BundleId& id) override;

  void save_state(util::Writer& w) const override;
  bool load_state(util::Reader& r) override;

  std::uint32_t copies_left(const bundle::BundleId& id) const;

  /// Checkpoint layout; the initial copy count is rebuilt, not saved.
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.copies_, s.peer_subscriptions_);
  }

 private:
  static constexpr std::uint64_t kMaxBlobEntries = 100'000;

  bool peer_is_subscriber(const pki::UserId& peer, const pki::UserId& publisher) const;

  std::uint32_t initial_copies_;
  std::map<bundle::BundleId, std::uint32_t> copies_;
  std::map<pki::UserId, std::set<pki::UserId>> peer_subscriptions_;
};

}  // namespace sos::mw
