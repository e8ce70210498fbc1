// Ad hoc manager — the bottom blue layer of Fig 1. Wraps the (simulated)
// Multipeer Connectivity endpoint and owns everything the paper assigns to
// it: viewing discovered peers, establishing D2D connections, encrypting
// connections (cert exchange -> X25519 ECDH -> HKDF -> ChaCha20-Poly1305),
// validating certificates, and signing/verifying forwarded data. Real MPC
// encrypts sessions in a way Apple does not document, so this handshake
// stands in for it and is fully specified here.
//
// Recurring contacts — the common case under human mobility — skip the
// cert exchange + ECDH entirely: each full handshake also derives a
// resumption master secret (extra HKDF output), cached per peer-certificate
// fingerprint in an LRU with a configurable lifetime. On re-contact both
// sides exchange one plaintext Resume frame (fingerprint + fresh nonce +
// HMAC proof under the cached secret) and derive fresh session keys via
// HKDF over both nonces; any miss, expiry, revoked certificate, or bad
// proof falls back to the full handshake. Forward secrecy therefore
// degrades only within the resumption lifetime.
//
// Like TLS 1.3 0-RTT, the Resume frame itself is replayable (the proof
// covers only the sender fingerprint + nonce, not the connection): a
// replay can at worst open a half-session whose traffic the replayer
// cannot read, inject into, or complete — a DoS-class nuisance equivalent
// to the garbage-injection attacks the session layer already tolerates.
// A replayed Hello cannot tear down a live resumed session either: the
// full-handshake fallback is honored only before any sealed frame has
// authenticated under the resumed keys.
#pragma once

#include <array>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>

#include "bundle/bundle.hpp"
#include "bundle/records.hpp"
#include "crypto/drbg.hpp"
#include "crypto/verify_memo.hpp"
#include "mw/stats.hpp"
#include "mw/wire.hpp"
#include "pki/bootstrap.hpp"
#include "sim/multipeer.hpp"

namespace sos::mw {

/// The advertisement an AdHocManager publishes: the UserID -> MessageNumber
/// entries it was built from, immutable once published. A browsing SOS
/// node hands these entries to its routing scheme as they are; the
/// plain-text dictionary is rendered only where text is read (a
/// checkpoint, MpcEndpoint::discovery_info()).
class Advert final : public sim::Advertisement {
 public:
  using Entries = std::map<pki::UserId, std::uint32_t>;

  explicit Advert(Entries entries) : entries_(std::move(entries)) {}
  const Entries& entries() const { return entries_; }
  /// Base32 user id -> decimal message number.
  sim::DiscoveryInfo render() const override;
  /// The entries of a plain-text dictionary; keys that are not user ids (a
  /// foreign advertiser's) are skipped.
  static Entries parse(const sim::DiscoveryInfo& info);

 private:
  Entries entries_;
};

class AdHocManager {
 public:
  AdHocManager(sim::Scheduler& sched, sim::MpcEndpoint& endpoint,
               const pki::DeviceCredentials& creds, NodeStats& stats);

  /// Begin advertising + browsing (both roles, as AlleyOop does).
  void start();

  // --- scheduler/network rebinding (partitioned replay) -------------------
  /// Tear down any still-live sessions before the transport goes away: the
  /// peers behind them are unreachable once detached, and a stale secure
  /// entry would wedge the next handshake on that transport id. Secure
  /// sessions are counted lost and fire on_session_down (so the message
  /// layer runs its usual drop cleanup); half-open handshakes are discarded
  /// silently. The resumption cache and hints survive, which is what lets
  /// the next contact resume. No-op at a quiescent point (task boundaries,
  /// where every contact has ended).
  void drop_live_sessions();
  /// Unhook from the current endpoint and scheduler. All soft state —
  /// sessions, resumption cache, verify cache, the advertised dictionary —
  /// survives; only the transport binding is released. Call only when no
  /// session is live (SosNode::detach calls drop_live_sessions first).
  void detach();
  /// Rebind to a new scheduler/endpoint pair and restore the transport
  /// surface (advertising + browsing + discovery dictionary) if started.
  void attach(sim::Scheduler& sched, sim::MpcEndpoint& endpoint);
  bool attached() const { return sched_ != nullptr; }

  /// Power-cycle state loss (fault-injection churn): everything held in RAM
  /// goes — session state, transport resume hints, the verified-bundle
  /// cache. The resumption-secret cache is nominally persisted; pass
  /// lose_resume_cache to model flash loss too, forcing the next contact
  /// back to a full handshake. Call with no live sessions
  /// (drop_live_sessions first); the advertised dictionary and started flag
  /// survive so the node comes back up advertising.
  void reset_after_reboot(bool lose_resume_cache);

  /// Content-verification ablation: when off, verify_bundle accepts
  /// everything without policy or signature checks (the unsigned
  /// epidemic baseline of the disaster benches). Session handshakes are
  /// untouched — this ablates bundle trust, not transport encryption.
  void set_verify_signatures(bool on) { verify_signatures_ = on; }

  /// Share a cross-node memo of signature verdicts (replay engines): the
  /// bundle/cert checks below consult it before doing curve math. Counters
  /// are unaffected — the memo only skips recomputing a pure function.
  void set_verify_memo(crypto::VerifyMemo* memo) { verify_memo_ = memo; }

  /// Publish a new advertisement (UserID -> MsgNumber) built from `entries`.
  void set_advertisement(Advert::Entries entries);

  /// Ask for a session with a discovered peer.
  void connect(sim::PeerId peer);
  bool session_secure(sim::PeerId peer) const;
  /// Certificate presented by the peer during the handshake (nullptr until
  /// the session is secure).
  const pki::Certificate* peer_certificate(sim::PeerId peer) const;
  std::vector<sim::PeerId> secure_peers() const;

  /// Seal and transmit an application frame (Summary/Request/BundleData).
  void send_frame(sim::PeerId peer, FrameType type, util::ByteView payload);
  /// Same, for a payload of `payload_size` bytes that `encode(util::Writer&)`
  /// writes straight into the wire buffer, which is then sealed where it
  /// lies: one buffer carries the frame from encoding to the air.
  template <class Encode>
  void send_frame(sim::PeerId peer, FrameType type, std::size_t payload_size, Encode&& encode) {
    util::Writer wire = open_frame(type, payload_size);
    encode(wire);
    seal_and_send(peer, wire.take());
  }

  /// Verify a received bundle end to end: origin certificate chains to the
  /// CA root, is time-valid and unrevoked, binds the claimed origin id, and
  /// the bundle signature checks out under the certified key. Signature
  /// verdicts are memoized in an LRU cache keyed by bundle id + content
  /// digest, so epidemic/spray re-receptions skip the two signature checks;
  /// the time-dependent policy half is re-evaluated on every call.
  bool verify_bundle(const bundle::Bundle& b, const pki::Certificate& origin_cert);

  /// Bound the verified-bundle cache (callers tie this to store capacity).
  void set_verify_cache_capacity(std::size_t capacity);

  /// Enable session resumption with the given secret lifetime in
  /// sim-seconds (0, the default, disables it: every contact pays the full
  /// handshake). Expiry is measured from the last FULL handshake, so the
  /// forward-secrecy window never stretches through chained resumes.
  void set_resume_lifetime(util::SimTime lifetime_s);
  /// Bound the per-peer resumption-secret cache (LRU).
  void set_resume_cache_capacity(std::size_t capacity);
  /// Resumption entries currently cached (tests/introspection).
  std::size_t resume_cache_size() const { return resume_cache_.size(); }
  /// Drop the cached resumption secret for one peer certificate
  /// fingerprint (e.g. after an app-level trust change).
  void forget_resume_secret(const std::array<std::uint8_t, 32>& fingerprint);

  sim::Scheduler& scheduler() { return *sched_; }

  /// Checkpoint the transport-independent soft state: session RNG stream,
  /// started flag, advertisement dictionary, verify + resume caches (LRU
  /// order preserved exactly; verdicts and peer certificates are indices
  /// into the payload's record table), and transport resume hints. Call
  /// only while detached at a quiescent point (no sessions — SosNode::save_state
  /// asserts this). Configuration (lifetimes, capacities, memo pointers)
  /// is not serialized; the owner re-applies it before load_state.
  void save_state(util::Writer& w, bundle::RecordTable& records) const;
  /// Restore state written by save_state (parse fully, then commit; false
  /// on malformed input with the manager untouched). Call while detached.
  bool load_state(util::Reader& r, const bundle::RecordTable& records);

  // --- callbacks up to the message manager -------------------------------
  /// Peer advertisement seen while browsing (decoded dictionary).
  std::function<void(sim::PeerId, const Advert::Entries&)> on_peer_advert;
  std::function<void(sim::PeerId)> on_peer_gone;
  /// Handshake completed; peer identity authenticated.
  std::function<void(sim::PeerId, const pki::Certificate&)> on_secure_session;
  std::function<void(sim::PeerId)> on_session_down;
  /// Decrypted, parsed application frame.
  std::function<void(sim::PeerId, FrameType, util::Bytes)> on_frame;

  const pki::DeviceCredentials& credentials() const { return creds_; }

 private:
  struct Session {
    Session() = default;
    Session(const Session&) = default;
    Session& operator=(const Session&) = default;
    Session(Session&&) = default;
    Session& operator=(Session&&) = default;
    ~Session() {
      util::secure_wipe(eph_priv);
      util::secure_wipe(resume_secret);
      util::secure_wipe(send_key, sizeof(send_key));
      util::secure_wipe(recv_key, sizeof(recv_key));
    }

    crypto::X25519Key eph_priv{};
    crypto::X25519Key eph_pub{};
    bool hello_sent = false;
    bool secure = false;
    bool resumed = false;  // secure via Resume (vs full handshake)
    // Resume attempt in flight: our nonce plus a snapshot of the secret and
    // peer certificate it was made under (snapshotting avoids a second
    // cache lookup racing expiry between our send and the peer's reply).
    bool resume_sent = false;
    std::array<std::uint8_t, 32> resume_nonce{};
    std::array<std::uint8_t, 32> resume_secret{};
    pki::Certificate resume_cert;
    std::uint8_t send_key[32] = {0};
    std::uint8_t recv_key[32] = {0};
    std::uint64_t send_ctr = 0;
    std::uint64_t recv_ctr = 0;
    pki::Certificate peer_cert;
  };

  using Fingerprint = std::array<std::uint8_t, 32>;
  struct ResumeEntry {
    ResumeEntry() = default;
    ResumeEntry(const ResumeEntry&) = default;
    ResumeEntry& operator=(const ResumeEntry&) = default;
    ResumeEntry(ResumeEntry&&) = default;
    ResumeEntry& operator=(ResumeEntry&&) = default;
    ~ResumeEntry() { util::secure_wipe(secret); }

    std::array<std::uint8_t, 32> secret{};  // resumption master secret
    pki::Certificate cert;                  // peer cert from the full handshake
    util::SimTime established_at = 0;       // time of that full handshake
    std::list<Fingerprint>::iterator lru_it;
  };

  using VerifyDigest = std::array<std::uint8_t, 32>;
  struct VerifyCacheEntry {
    VerifyDigest digest;
    std::list<bundle::BundleId>::iterator lru_it;
  };

  /// Shared policy gate for both verification paths: certificate policy
  /// (issuer, validity window, CRL) plus the Fig 2a identity binding.
  /// Counts the rejection on failure.
  bool bundle_policy_ok(const bundle::Bundle& b, const pki::Certificate& cert);

  /// ed25519_verify, routed through the shared memo when one is attached.
  bool check_signature(const crypto::EdPublicKey& pub, util::ByteView msg,
                       const crypto::EdSignature& sig);

  void install_endpoint_callbacks();

  static VerifyDigest verify_digest(util::ByteView bundle_signed,
                                    const crypto::EdSignature& bundle_sig,
                                    util::ByteView cert_signed,
                                    const crypto::EdSignature& cert_sig);
  bool verify_cache_hit(const bundle::BundleId& id, const VerifyDigest& digest);
  void verify_cache_insert(const bundle::BundleId& id, const VerifyDigest& digest);

  /// A wire buffer holding the sealed-frame header for `type`, with room
  /// for `payload_size` payload bytes and the AEAD tag.
  static util::Writer open_frame(FrameType type, std::size_t payload_size);
  /// Seal wire[1..] in place under the peer's session and transmit it; a
  /// peer without a secure session drops the frame.
  void seal_and_send(sim::PeerId peer, util::Bytes wire);

  void handle_connected(sim::PeerId peer);
  void handle_receive(sim::PeerId peer, util::Bytes wire);
  void handle_hello(sim::PeerId peer, util::ByteView payload);
  void send_hello(sim::PeerId peer);
  void handle_resume(sim::PeerId peer, util::ByteView payload);
  void send_resume(sim::PeerId peer, const ResumeEntry& entry);
  /// Valid unexpired cache entry for `fp`, with the certificate policy
  /// re-checked at `now`; erases and returns nullptr on expiry/revocation.
  ResumeEntry* resume_lookup(const Fingerprint& fp);
  void resume_cache_store(const Fingerprint& fp, ResumeEntry entry);
  void resume_cache_erase(std::map<Fingerprint, ResumeEntry>::iterator it);
  void mark_session_secure(sim::PeerId peer, Session& s, const util::Bytes& okm,
                           bool mine_first, const pki::Certificate& peer_cert);
  static Fingerprint cert_fingerprint(const pki::Certificate& cert);

  sim::Scheduler* sched_;    // rebindable: see detach()/attach()
  sim::MpcEndpoint* endpoint_;
  const pki::DeviceCredentials& creds_;
  NodeStats& stats_;
  crypto::Drbg session_rng_;
  std::map<sim::PeerId, Session> sessions_;
  bool started_ = false;               // advertising+browsing requested
  // The published advertisement; survives rebinding.
  std::shared_ptr<const Advert> advert_ = std::make_shared<const Advert>(Advert::Entries{});
  // sos-lint: allow(seam-exempt) scenario-constant toggle: set before the
  // run starts and never scheduler-coupled, so it transfers by value.
  bool verify_signatures_ = true;      // see set_verify_signatures
  crypto::VerifyMemo* verify_memo_ = nullptr;

  // Verified-bundle cache: id -> digest of (bundle signed bytes, bundle
  // signature, certificate body, certificate signature). LRU-bounded.
  // sos-lint: allow(seam-exempt) pure value state (no scheduler or endpoint
  // handles): the cache rides across shards inside the object untouched —
  // exactly the behaviour the shard-crossing verify-cache tests pin.
  std::map<bundle::BundleId, VerifyCacheEntry> verify_cache_;
  // sos-lint: allow(seam-exempt) value state paired with verify_cache_.
  std::list<bundle::BundleId> verify_lru_;  // front = most recently used
  // sos-lint: allow(seam-exempt) scenario-constant bound, set at config time.
  std::size_t verify_cache_capacity_ = 4096;

  // Session-resumption cache: peer cert fingerprint -> resumption master
  // secret from the last full handshake with that identity. LRU-bounded;
  // entries expire resume_lifetime_s_ after the full handshake that minted
  // them. Keyed by certificate (not radio PeerId) so a peer that reappears
  // under a different transport id still resumes.
  std::map<Fingerprint, ResumeEntry> resume_cache_;
  std::list<Fingerprint> resume_lru_;  // front = most recently used
  std::size_t resume_cache_capacity_ = 256;
  util::SimTime resume_lifetime_s_ = 0;  // 0 = resumption disabled
  // Last authenticated identity seen on each transport peer id: the hint
  // that lets us open with Resume instead of Hello. A stale hint (device
  // swapped behind the id) just fails the proof and falls back.
  std::map<sim::PeerId, Fingerprint> resume_hint_;
  Fingerprint own_fingerprint_{};
};

}  // namespace sos::mw
