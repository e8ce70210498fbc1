// The routing-scheme interface — the orange layer of Fig 1. Schemes see a
// deliberately narrow RoutingContext (own identity, subscriptions, bundle
// store, clock) and make five kinds of decisions; everything else (security,
// discovery, connection management, transfer bookkeeping) lives in the blue
// managers that schemes cannot touch. The paper's point is that this makes a
// scheme tiny: Epidemic and Interest-Based below are each well under 100
// lines, matching the "<100 lines of Swift" claim.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bundle/bundle.hpp"
#include "bundle/store.hpp"
#include "mw/wire.hpp"
#include "util/time.hpp"

namespace sos::mw {

/// Read-only view of the local node handed to every scheme call.
class RoutingContext {
 public:
  RoutingContext(const pki::UserId& self, const std::set<pki::UserId>& subscriptions,
                 const bundle::BundleStore& store, util::SimTime now)
      : self_(self), subscriptions_(subscriptions), store_(store), now_(now) {}

  const pki::UserId& self() const { return self_; }
  /// Publishers the local user follows (the app layer maintains this set).
  const std::set<pki::UserId>& subscriptions() const { return subscriptions_; }
  bool subscribed_to(const pki::UserId& uid) const { return subscriptions_.count(uid) > 0; }
  const bundle::BundleStore& store() const { return store_; }
  util::SimTime now() const { return now_; }

  /// Highest message number held for a publisher (0 if none).
  std::uint32_t max_held(const pki::UserId& uid) const {
    const auto& s = store_.summary();
    auto it = s.find(uid);
    return it == s.end() ? 0 : it->second;
  }

  /// Calls fn(uid, held) for each publisher `advertised` is ahead on here:
  /// its number exceeds `held`, max_held(uid). In UserId order; with
  /// `subscribed_only`, followed publishers alone. One ordered merge of
  /// the sorted maps instead of a lookup per entry.
  template <class Fn>
  void for_each_ahead(const std::map<pki::UserId, std::uint32_t>& advertised,
                      bool subscribed_only, Fn&& fn) const {
    const auto& summary = store_.summary();
    auto held = summary.begin();
    auto wanted = subscriptions_.begin();
    for (const auto& [uid, num] : advertised) {
      if (subscribed_only) {
        while (wanted != subscriptions_.end() && *wanted < uid) ++wanted;
        if (wanted == subscriptions_.end()) return;  // nothing further is followed
        if (uid < *wanted) continue;
      }
      while (held != summary.end() && held->first < uid) ++held;
      std::uint32_t mine = held != summary.end() && held->first == uid ? held->second : 0;
      if (num > mine) fn(uid, mine);
    }
  }

  /// Carried unicast bundles keyed by *destination*: the advertisement
  /// entry that tells a passing destination "I have mail for you".
  std::map<pki::UserId, std::uint32_t> unicast_dest_summary() const {
    std::map<pki::UserId, std::uint32_t> out;
    if (store_.unicast_count() == 0) return out;  // all-pub/sub fast path
    for (const auto* stored : store_.all()) {
      if (!stored->bundle.is_unicast()) continue;
      auto& max = out[stored->bundle.dest];
      if (stored->bundle.msg_num > max) max = stored->bundle.msg_num;
    }
    return out;
  }

  /// Merge helper for advertisements (keeps the larger number on clash).
  static void merge_max(std::map<pki::UserId, std::uint32_t>& into,
                        const std::map<pki::UserId, std::uint32_t>& from) {
    for (const auto& [uid, num] : from) {
      auto& slot = into[uid];
      if (num > slot) slot = num;
    }
  }

 private:
  const pki::UserId& self_;
  const std::set<pki::UserId>& subscriptions_;
  const bundle::BundleStore& store_;
  util::SimTime now_;
};

/// Authenticated view of a connected peer after the summary exchange (the
/// decoded summary is moved in, never copied).
struct PeerView {
  pki::UserId uid;  // from the verified certificate
  SummaryFrame summary;
};

struct RequestPlan {
  std::vector<std::pair<pki::UserId, std::uint32_t>> by_publisher;  // (uid, since)
  std::vector<bundle::BundleId> by_id;
  bool empty() const { return by_publisher.empty() && by_id.empty(); }
};

class RoutingScheme {
 public:
  virtual ~RoutingScheme() = default;
  virtual std::string name() const = 0;

  /// Entries for the plain-text advertisement and the in-session summary:
  /// which (publisher -> latest number) pairs this node serves.
  virtual std::map<pki::UserId, std::uint32_t> advertisement(const RoutingContext& ctx) = 0;

  /// Browse-side decision: is the advertised dictionary interesting enough
  /// to spend a connection on? (Fig 2b: "browsing node decides whether it
  /// should request a connection".)
  virtual bool should_connect(const RoutingContext& ctx,
                              const std::map<pki::UserId, std::uint32_t>& advertised) = 0;

  /// Build the request after receiving the peer's in-session summary.
  virtual RequestPlan plan_requests(const RoutingContext& ctx, const PeerView& peer) = 0;

  /// Sender-side filter: may this stored bundle go to this peer?
  virtual bool may_send(const RoutingContext& ctx, const bundle::Bundle& b,
                        const PeerView& peer) = 0;

  /// Receiver-side decision: store-and-carry (become a forwarder) or not.
  /// Bundles useful to the local user are delivered to the app either way.
  virtual bool should_carry(const RoutingContext& ctx, const bundle::Bundle& b) = 0;

  // --- optional hooks ------------------------------------------------------

  /// Opaque state shipped inside our summary (PRoPHET predictability).
  virtual util::Bytes summary_blob(const RoutingContext& ctx) {
    (void)ctx;
    return {};
  }
  /// Peer's blob from their summary.
  virtual void on_peer_blob(const pki::UserId& peer, util::ByteView blob) {
    (void)peer;
    (void)blob;
  }
  /// A secure session to `peer` just came up.
  virtual void on_encounter(const RoutingContext& ctx, const pki::UserId& peer) {
    (void)ctx;
    (void)peer;
  }
  /// Copy budget to hand over with this bundle (Spray-and-Wait); 0 = n/a.
  virtual std::uint32_t copies_to_send(const RoutingContext& ctx, const bundle::Bundle& b,
                                       const PeerView& peer) {
    (void)ctx;
    (void)b;
    (void)peer;
    return 0;
  }
  /// Called after a bundle was handed to the session layer for `peer`.
  virtual void on_sent(const RoutingContext& ctx, const bundle::Bundle& b,
                       const PeerView& peer) {
    (void)ctx;
    (void)b;
    (void)peer;
  }
  /// Called when a bundle arrives carrying a copy budget.
  virtual void on_received_copies(const bundle::BundleId& id, std::uint32_t copies) {
    (void)id;
    (void)copies;
  }
  /// Copy budget for a bundle this node originates.
  virtual void on_published(const bundle::BundleId& id) { (void)id; }

  // --- checkpoint seam -----------------------------------------------------

  /// Serialize the scheme's mutable state (soak checkpoints). Stateless
  /// schemes (epidemic, interest, direct, blackhole) have nothing to save;
  /// stateful ones (prophet, spray) override both hooks. Configuration
  /// (ProphetParams, initial copy counts) is NOT serialized — it is rebuilt
  /// from the scenario config on resume.
  virtual void save_state(util::Writer& w) const { (void)w; }
  /// Restore state written by save_state. Returns false on malformed input.
  virtual bool load_state(util::Reader& r) {
    (void)r;
    return true;
  }
};

/// Factory for the built-in schemes: "epidemic", "interest", "spray",
/// "prophet", "direct", and the "blackhole" adversary. Returns nullptr for
/// unknown names.
std::unique_ptr<RoutingScheme> make_scheme(const std::string& name);
/// Every name make_scheme accepts, in a fixed order (for usage messages).
std::vector<std::string> scheme_names();

}  // namespace sos::mw
