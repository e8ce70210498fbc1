// SosNode — the public face of the SOS middleware. One instance runs inside
// each mobile application (the paper's non-daemon design: no jailbreak, App
// Store compliant), composing the three managers of Fig 1 behind a small
// API: publish, follow, send encrypted direct messages, pick a routing
// scheme, receive verified data.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "mw/adhoc_manager.hpp"
#include "mw/message_manager.hpp"
#include "mw/routing_manager.hpp"
#include "mw/stats.hpp"

namespace sos::mw {

struct SosConfig {
  std::string scheme = "interest";       // "epidemic", "interest", "spray", "prophet", "direct"
  std::uint32_t bundle_lifetime_s = 0;   // 0 = bundles never expire
  std::size_t store_capacity = 10000;
  util::SimTime maintenance_interval_s = 600.0;
  /// > 0: cache a resumption secret per peer after each full handshake and
  /// re-establish later contacts with a 1-RTT HMAC-proof resume — zero
  /// X25519 operations and no certificate exchange on recurring contacts.
  /// Forward secrecy for resumed sessions is bounded by this lifetime
  /// (measured from the minting full handshake). 0 disables resumption.
  util::SimTime resume_lifetime_s = 86400.0;  // one daily-routine cycle
  /// LRU bound on cached resumption secrets (distinct recurring peers).
  std::size_t resume_cache_capacity = 256;
  /// Content-verification ablation (the unsigned epidemic baseline of the
  /// disaster benches): received bundles are accepted without certificate
  /// or signature checks. Transport handshakes are untouched.
  bool verify_signatures = true;
  /// Adversarial role (forged-signature storm): every published bundle is
  /// signed and then its signature corrupted, so honest verifiers reject it
  /// while unsigned deployments spread it for free.
  bool forge_signatures = false;
};

class SosNode {
 public:
  SosNode(sim::Scheduler& sched, sim::MpcEndpoint& endpoint, pki::DeviceCredentials creds,
          SosConfig config = {});

  /// Begin advertising/browsing and periodic maintenance.
  void start();

  // --- scheduler/network rebinding (partitioned replay) --------------------
  /// Release the node from its scheduler and endpoint. Durable middleware
  /// state survives — bundle store, resumption cache, verify caches,
  /// routing tables, stats, pending timer deadlines — only the binding to
  /// the simulation substrate is dropped. Sessions still live at this
  /// moment are torn down first (their transport is going away; the
  /// resumption cache lets the next contact resume on the new shard);
  /// task boundaries are quiescent by construction, so the engine never
  /// hits that path.
  void detach();
  /// Rebind to a new scheduler shard and endpoint; pending timers re-arm at
  /// their original absolute deadlines.
  void attach(sim::Scheduler& sched, sim::MpcEndpoint& endpoint);
  bool attached() const;

  // --- checkpointing (soak harness) ----------------------------------------
  /// Serialize exactly the durable state the detach()/attach() seam already
  /// enumerates — bundle store, resumption cache, verify/advert caches,
  /// routing tables, stats, pending absolute timer deadlines — plus the
  /// publish counter. Bundles, certificates and verify verdicts are
  /// indices into the payload's record table. Only callable while detached
  /// at a quiescent cut (no live sessions). Identity and SosConfig are not
  /// serialized: a restoring node is constructed from the same scenario
  /// inputs first.
  void save_state(util::Writer& w, bundle::RecordTable& records) const;
  /// Mirror of save_state; call while detached, then attach() re-arms every
  /// restored deadline. Returns false on malformed input; the node may have
  /// partially restored manager state in that case and must be discarded.
  bool load_state(util::Reader& r, const bundle::RecordTable& records);

  /// Power cycle (fault-injection churn). Everything in RAM is lost:
  /// sessions, handshake state, verify cache, certificate cache,
  /// session bookkeeping. `lose_store` additionally wipes the persisted
  /// bundle store, `lose_resume_cache` the persisted resumption secrets
  /// (kept=resume on next contact, lost=full handshake). Routing-scheme
  /// internals (PRoPHET predictability, spray counters) deliberately
  /// survive: they are small and the schemes have no reset seam — modeling
  /// them as persisted app state. Advertising restarts from the surviving
  /// store contents.
  void reboot(bool lose_store, bool lose_resume_cache);

  /// Share a replay-wide memo of signature verdicts (see
  /// crypto::VerifyMemo); per-node counters are unaffected.
  void set_verify_memo(crypto::VerifyMemo* memo) { adhoc_->set_verify_memo(memo); }

  // --- application API ------------------------------------------------------
  /// Publish a signed social post; returns its (origin, msg_num) id.
  bundle::BundleId publish(util::Bytes payload,
                           bundle::ContentType type = bundle::ContentType::SocialPost);

  /// Send an end-to-end encrypted direct message. The payload is sealed for
  /// the destination's certified X25519 key: forwarders authenticate the
  /// bundle but cannot read it.
  bundle::BundleId send_direct(const pki::Certificate& dest_cert, util::ByteView plaintext);

  /// Decrypt a received direct message (bundle.dest must be this user).
  std::optional<util::Bytes> open_direct(const bundle::Bundle& b) const;

  void follow(const pki::UserId& uid) { routing_->follow(uid); }
  void unfollow(const pki::UserId& uid) { routing_->unfollow(uid); }
  const std::set<pki::UserId>& subscriptions() const { return routing_->subscriptions(); }

  /// Swap the routing scheme by name; false for unknown names.
  bool set_scheme(const std::string& name);
  void set_scheme(std::unique_ptr<RoutingScheme> scheme) {
    routing_->set_scheme(std::move(scheme));
  }
  const std::string scheme_name() { return routing_->scheme().name(); }

  /// Verified bundle relevant to this user (followed publisher or unicast
  /// to this user), exactly once per bundle.
  std::function<void(const bundle::Bundle&, const pki::Certificate&)> on_data;

  /// Every fresh verified bundle stored by this node, including relay
  /// carries (metrics/instrumentation hook; mirrors routing().on_carry).
  std::function<void(const bundle::Bundle&)> on_carry;

  // --- introspection ----------------------------------------------------------
  const pki::DeviceCredentials& credentials() const { return creds_; }
  const pki::UserId& user_id() const { return creds_.user_id; }
  /// Message number the next publish()/send_direct() will use.
  std::uint32_t next_message_number() const { return next_msg_num_; }
  const NodeStats& stats() const { return stats_; }
  bundle::BundleStore& store() { return msgs_->store(); }
  AdHocManager& adhoc() { return *adhoc_; }
  MessageManager& messages() { return *msgs_; }
  RoutingManager& routing() { return *routing_; }

 private:
  sim::Scheduler* sched_;  // rebindable: see detach()/attach()
  // sos-lint: allow(seam-exempt) node identity/config/stats: owned value
  // state with no scheduler handles; the managers below hold references
  // into these, so they must stay put while the managers rebind around them.
  pki::DeviceCredentials creds_;
  SosConfig config_;   // sos-lint: allow(seam-exempt) see creds_
  NodeStats stats_;    // sos-lint: allow(seam-exempt) see creds_
  std::unique_ptr<AdHocManager> adhoc_;
  // sos-lint: allow(seam-exempt) the message manager holds no scheduler or
  // endpoint handle: its store and certificate cache are value state, and
  // its session bookkeeping dies with drop_live_sessions.
  std::unique_ptr<MessageManager> msgs_;
  std::unique_ptr<RoutingManager> routing_;
  // sos-lint: allow(seam-exempt) monotonic publish counter: advances only
  // on app-driven publish/send calls, which never happen mid-rebind.
  std::uint32_t next_msg_num_ = 1;
};

}  // namespace sos::mw
