// Message manager — the middle blue layer of Fig 1. It owns the bundle
// store and the certificate cache, tracks which peers have live secure
// sessions, translates wire frames to/from the structures the routing
// layer consumes, and reacts to connection-state changes (a session drop
// invalidates the per-session transfer bookkeeping, so the next encounter's
// summary/request exchange resumes exactly where the transfer broke).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <span>

#include "bundle/store.hpp"
#include "mw/adhoc_manager.hpp"
#include "mw/stats.hpp"
#include "mw/wire.hpp"

namespace sos::mw {

class MessageManager {
 public:
  MessageManager(AdHocManager& adhoc, NodeStats& stats, std::size_t store_capacity = 10000);
  /// Unhooks the callbacks installed on the ad hoc manager: they capture
  /// `this`, and the ad hoc manager may outlive us.
  ~MessageManager();

  bundle::BundleStore& store() { return store_; }
  const bundle::BundleStore& store() const { return store_; }

  // --- certificate cache (Fig 3b: forwarders re-send origin certificates) --
  void remember_certificate(const pki::Certificate& cert);
  const pki::Certificate* certificate_for(const pki::UserId& uid) const;

  // --- peer/session bookkeeping ------------------------------------------
  std::vector<sim::PeerId> secure_peers() const { return adhoc_.secure_peers(); }

  // --- outbound operations (called by the routing manager) -----------------
  /// Encode `summary` once and send it to each of `peers`.
  void send_summary(std::span<const sim::PeerId> peers, const SummaryFrame& summary);
  void send_request(sim::PeerId peer, const RequestFrame& request);
  /// Ship one bundle with its origin certificate; no-op without the cert
  /// (a forwarder that cannot prove provenance must not forward). The
  /// frame is encoded straight into the wire buffer that is sealed and
  /// sent. Nothing on this path touches the store.
  bool send_bundle(sim::PeerId peer, const bundle::Bundle& b, std::uint32_t spray_copies);
  /// Bundles already sent on the current session with `peer` (so never
  /// re-sent while co-located), in BundleId order — the store's order, so
  /// a request walk merges against it.
  const std::set<bundle::BundleId>& sent_to(sim::PeerId peer) const;

  // --- callbacks up to the routing manager ---------------------------------
  std::function<void(sim::PeerId, const Advert::Entries&)> on_peer_advert;
  std::function<void(sim::PeerId, const pki::UserId&)> on_session_ready;
  std::function<void(sim::PeerId)> on_session_down;
  /// The decoded summary, handed over by move.
  std::function<void(sim::PeerId, SummaryFrame)> on_summary;
  std::function<void(sim::PeerId, const RequestFrame&)> on_request;
  /// Verified bundle (certificate + signature already checked) + origin cert.
  std::function<void(sim::PeerId, bundle::Bundle, const pki::Certificate&, std::uint32_t)>
      on_bundle;

  AdHocManager& adhoc() { return adhoc_; }

  /// Power-cycle state loss (fault-injection churn): session bookkeeping
  /// and the certificate cache lived in RAM and are gone. The bundle store
  /// is nominally persisted; pass lose_store to model flash loss too. The
  /// node's own certificate is re-remembered (it ships with the app).
  void reset_after_reboot(bool lose_store);

  // --- checkpointing (soak harness) ----------------------------------------
  /// Serialize store contents and the certificate cache; bundles and
  /// certificates are indices into the payload's record table. Only
  /// callable at a quiescent cut (no live sessions: the session bookkeeping
  /// must already be empty — a session drop clears it).
  void save_state(util::Writer& w, bundle::RecordTable& records) const;
  /// Mirror of save_state; call while the node is detached. Returns false
  /// on malformed input leaving the manager untouched.
  bool load_state(util::Reader& r, const bundle::RecordTable& records);

 private:
  void handle_frame(sim::PeerId peer, FrameType type, util::Bytes payload);

  AdHocManager& adhoc_;
  // sos-lint: allow(seam-exempt) reference to node-lifetime stats storage;
  // rebinding happens one layer down (AdHocManager owns the scheduler ties).
  NodeStats& stats_;
  // sos-lint: allow(seam-exempt) pure value state: the store is exactly the
  // payload the seam exists to carry across shards, untouched.
  bundle::BundleStore store_;
  std::map<pki::UserId, pki::Certificate> cert_cache_;  // sos-lint: allow(seam-exempt) value state, no scheduler handles
  // sos-lint: allow(seam-exempt) per-session send bookkeeping: keyed by
  // live PeerId sessions, which AdHocManager tears down on session drop (not
  // on detach — sessions survive a shard boundary by design, see mw_test's
  // shard-crossing session pins).
  std::map<sim::PeerId, std::set<bundle::BundleId>> sent_this_session_;
};

}  // namespace sos::mw
