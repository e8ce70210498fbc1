// Message manager — the middle blue layer of Fig 1. It owns the bundle
// store and the certificate cache, tracks which peers have live secure
// sessions, translates wire frames to/from the structures the routing
// layer consumes, and reacts to connection-state changes (a session drop
// invalidates the per-session transfer bookkeeping, so the next encounter's
// summary/request exchange resumes exactly where the transfer broke).
#pragma once

#include <functional>
#include <map>
#include <optional>
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
  /// Cancels any scheduled verify-queue flush: the flush lambda captures
  /// `this`, so it must not outlive the manager in the scheduler.
  ~MessageManager();

  bundle::BundleStore& store() { return store_; }
  const bundle::BundleStore& store() const { return store_; }

  // --- certificate cache (Fig 3b: forwarders re-send origin certificates) --
  void remember_certificate(const pki::Certificate& cert);
  const pki::Certificate* certificate_for(const pki::UserId& uid) const;

  // --- peer/session bookkeeping ------------------------------------------
  /// Authenticated user id of a connected peer (nullopt before handshake).
  std::optional<pki::UserId> peer_user(sim::PeerId peer) const;
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

  /// When > 0, received bundles are queued for up to this many sim-seconds
  /// and verified together in one batch signature pass (an incoming burst
  /// pays ~one double-scalar multiplication instead of one per bundle).
  /// 0 (the default) keeps the synchronous per-bundle path.
  void set_verify_batch_window(util::SimTime window) { verify_batch_window_ = window; }

  /// Adaptive flushing for the batch-verify window: a peer's queued entries
  /// are verified and delivered the moment its session drops (instead of
  /// dying with the transfer), and the whole queue flushes early under
  /// store pressure (when it reaches `max_queue` entries). Recovers the
  /// delivery loss a long window costs in dense cells while keeping the
  /// batched signature passes.
  void set_verify_batch_adaptive(bool adaptive, std::size_t max_queue = 256) {
    verify_batch_adaptive_ = adaptive;
    verify_batch_max_queue_ = max_queue > 0 ? max_queue : 1;
  }

  /// Power-cycle state loss (fault-injection churn): the verify queue and
  /// its pending flush, session bookkeeping, and the certificate cache all
  /// lived in RAM and are gone. The bundle store is nominally persisted;
  /// pass lose_store to model flash loss too. The node's own certificate is
  /// re-remembered (it ships with the app).
  void reset_after_reboot(bool lose_store);

  // --- scheduler rebinding (partitioned replay) ----------------------------
  /// Release the scheduler binding, remembering the pending flush deadline.
  /// The ad hoc manager must still be attached when this is called.
  void detach();
  /// Re-arm the pending flush (if any) on the newly attached scheduler.
  /// Call after AdHocManager::attach.
  void attach();

  // --- checkpointing (soak harness) ----------------------------------------
  /// Serialize store contents, certificate cache and the pending-flush
  /// deadline; bundles and certificates are indices into the payload's
  /// record table. Only callable at a quiescent cut (no live sessions: the
  /// session bookkeeping and verify queue must already be empty — a session
  /// drop drains both). Config knobs (batch window/adaptive/max queue) stay
  /// with the owner.
  void save_state(util::Writer& w, bundle::RecordTable& records) const;
  /// Mirror of save_state; call while detached, before attach() re-arms the
  /// restored flush deadline. Returns false on malformed input leaving the
  /// manager untouched.
  bool load_state(util::Reader& r, const bundle::RecordTable& records);

 private:
  void handle_frame(sim::PeerId peer, FrameType type, util::Bytes payload);
  void flush_verify_queue();

  struct PendingBundle {
    sim::PeerId peer;
    bundle::Bundle bundle;
    pki::Certificate cert;
    std::uint32_t spray_copies = 0;
    // Peers whose copy of the same bundle was deduplicated onto this entry;
    // if `peer`'s session drops before the flush, one of them inherits it.
    std::vector<sim::PeerId> also_offered_by{};
  };

  AdHocManager& adhoc_;
  // sos-lint: allow(seam-exempt) reference to node-lifetime stats storage;
  // rebinding happens one layer down (AdHocManager owns the scheduler ties).
  NodeStats& stats_;
  // sos-lint: allow(seam-exempt) pure value state: the store is exactly the
  // payload the seam exists to carry across shards, untouched.
  bundle::BundleStore store_;
  std::map<pki::UserId, pki::Certificate> cert_cache_;  // sos-lint: allow(seam-exempt) value state, no scheduler handles
  // sos-lint: allow(seam-exempt) session identity/send bookkeeping: keyed by
  // live PeerId sessions, which AdHocManager tears down on session drop (not
  // on detach — sessions survive a shard boundary by design, see mw_test's
  // shard-crossing session pins).
  std::map<sim::PeerId, pki::UserId> session_users_;
  // sos-lint: allow(seam-exempt) same lifecycle as session_users_.
  std::map<sim::PeerId, std::set<bundle::BundleId>> sent_this_session_;
  /// Batch-verify and deliver the given queue entries now.
  void flush_entries(std::vector<PendingBundle> entries);

  std::vector<PendingBundle> verify_queue_;
  bool verify_flush_scheduled_ = false;
  // Invariant (asserted at the arm/disarm sites): != kInvalidEventId exactly
  // while verify_flush_scheduled_ and attached; reset to the sentinel the
  // moment the event is cancelled or fires, so a stale id can never be
  // cancelled against a *different* scheduler shard after re-attach.
  sim::EventId verify_flush_event_ = sim::kInvalidEventId;
  util::SimTime verify_flush_at_ = 0.0;  // absolute deadline of that flush
  // sos-lint: allow(seam-exempt) scenario-constant batching knobs, fixed at
  // configure time; the only shard-sensitive flush state is the event id and
  // deadline above, which attach()/detach() do handle.
  util::SimTime verify_batch_window_ = 0.0;
  bool verify_batch_adaptive_ = false;  // sos-lint: allow(seam-exempt) see verify_batch_window_
  std::size_t verify_batch_max_queue_ = 256;  // sos-lint: allow(seam-exempt) see verify_batch_window_
};

}  // namespace sos::mw
