#include "mw/adhoc_manager.hpp"

#include <cassert>
#include <cstring>

#include "crypto/aead.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "util/codec.hpp"
#include "util/log.hpp"

namespace sos::mw {

namespace {
// Outer wire byte: distinguishes the plaintext handshake frames (Hello,
// Resume) from sealed traffic.
constexpr std::uint8_t kOuterHello = 1;
constexpr std::uint8_t kOuterSealed = 2;
constexpr std::uint8_t kOuterResume = 3;

void make_nonce(std::uint8_t nonce[12], std::uint64_t counter) {
  std::memset(nonce, 0, 12);
  util::store64_le(nonce, counter);
}
}  // namespace

AdHocManager::AdHocManager(sim::Scheduler& sched, sim::MpcEndpoint& endpoint,
                           const pki::DeviceCredentials& creds, NodeStats& stats)
    : sched_(&sched),
      endpoint_(&endpoint),
      creds_(creds),
      stats_(stats),
      session_rng_(util::concat(util::to_bytes("session-rng-"), creds.user_id.view())),
      own_fingerprint_(cert_fingerprint(creds.certificate)) {
  install_endpoint_callbacks();
}

void AdHocManager::install_endpoint_callbacks() {
  endpoint_->on_peer_found = [this](sim::PeerId peer, const sim::DiscoveryInfo& info) {
    if (!on_peer_advert) return;
    std::map<pki::UserId, std::uint32_t> parsed;
    for (const auto& [key, value] : info) {
      auto uid = pki::UserId::from_string(key);
      if (!uid) continue;  // foreign advertisement, not ours
      parsed[*uid] = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    }
    on_peer_advert(peer, parsed);
  };
  endpoint_->on_peer_lost = [this](sim::PeerId peer) {
    if (on_peer_gone) on_peer_gone(peer);
  };
  endpoint_->on_connected = [this](sim::PeerId peer) { handle_connected(peer); };
  endpoint_->on_disconnected = [this](sim::PeerId peer) {
    auto it = sessions_.find(peer);
    bool was_secure = it != sessions_.end() && it->second.secure;
    sessions_.erase(peer);
    if (was_secure) {
      ++stats_.sessions_lost;
      if (on_session_down) on_session_down(peer);
    }
  };
  endpoint_->on_receive = [this](sim::PeerId peer, util::Bytes data) {
    handle_receive(peer, std::move(data));
  };
}

void AdHocManager::start() {
  started_ = true;
  endpoint_->start_advertising(advert_info_);
  endpoint_->start_browsing();
}

void AdHocManager::drop_live_sessions() {
  // Collect first: on_session_down handlers may re-enter (the adaptive
  // verify flush delivers bundles, which can touch the session map).
  std::vector<sim::PeerId> secure;
  for (const auto& [peer, session] : sessions_)
    if (session.secure) secure.push_back(peer);
  sessions_.clear();
  for (sim::PeerId peer : secure) {
    ++stats_.sessions_lost;
    if (on_session_down) on_session_down(peer);
  }
}

void AdHocManager::reset_after_reboot(bool lose_resume_cache) {
  // RAM is gone: half-open handshakes and the verified-bundle cache. (Live
  // sessions must already have been dropped — drop_live_sessions — so their
  // loss was counted and cascaded.) The resumption state — secrets AND the
  // transport-id -> identity hints pointing at them — persists like a TLS
  // client's on-disk ticket store, so a crash reboot still resumes its
  // recurring contacts; only a flash wipe forces full handshakes again.
  sessions_.clear();
  verify_cache_.clear();
  verify_lru_.clear();
  if (lose_resume_cache) {
    resume_hint_.clear();
    resume_cache_.clear();
    resume_lru_.clear();
  }
}

void AdHocManager::detach() {
  if (endpoint_ != nullptr) {
    endpoint_->on_peer_found = nullptr;
    endpoint_->on_peer_lost = nullptr;
    endpoint_->on_connected = nullptr;
    endpoint_->on_disconnected = nullptr;
    endpoint_->on_receive = nullptr;
  }
  endpoint_ = nullptr;
  sched_ = nullptr;
}

void AdHocManager::attach(sim::Scheduler& sched, sim::MpcEndpoint& endpoint) {
  sched_ = &sched;
  endpoint_ = &endpoint;
  install_endpoint_callbacks();
  if (started_) {
    // Restore the transport surface on the fresh endpoint. No peer is in
    // range at a task boundary, so this schedules no discovery events.
    endpoint_->start_advertising(advert_info_);
    endpoint_->start_browsing();
  }
}

sim::DiscoveryInfo AdHocManager::to_discovery_info(
    const std::map<pki::UserId, std::uint32_t>& entries) {
  sim::DiscoveryInfo info;
  for (const auto& [uid, num] : entries) info[uid.to_string()] = std::to_string(num);
  return info;
}

void AdHocManager::set_advertisement(const std::map<pki::UserId, std::uint32_t>& entries) {
  advert_info_ = to_discovery_info(entries);
  endpoint_->update_discovery_info(advert_info_);
}

void AdHocManager::connect(sim::PeerId peer) {
  if (endpoint_->is_connected(peer)) return;
  endpoint_->invite(peer);
}

void AdHocManager::disconnect(sim::PeerId peer) {
  endpoint_->disconnect(peer);
}

bool AdHocManager::session_secure(sim::PeerId peer) const {
  auto it = sessions_.find(peer);
  return it != sessions_.end() && it->second.secure;
}

const pki::Certificate* AdHocManager::peer_certificate(sim::PeerId peer) const {
  auto it = sessions_.find(peer);
  return (it != sessions_.end() && it->second.secure) ? &it->second.peer_cert : nullptr;
}

std::vector<sim::PeerId> AdHocManager::secure_peers() const {
  std::vector<sim::PeerId> out;
  for (const auto& [peer, session] : sessions_)
    if (session.secure) out.push_back(peer);
  return out;
}

void AdHocManager::handle_connected(sim::PeerId peer) {
  // Recurring contact with a cached, unexpired resumption secret: open with
  // the 1-RTT Resume instead of the full handshake. A stale hint or a cache
  // miss on the peer's side degrades gracefully to Hello.
  if (resume_lifetime_s_ > 0) {
    auto hint = resume_hint_.find(peer);
    if (hint != resume_hint_.end()) {
      if (ResumeEntry* entry = resume_lookup(hint->second)) {
        send_resume(peer, *entry);
        return;
      }
    }
  }
  send_hello(peer);
}

void AdHocManager::send_hello(sim::PeerId peer) {
  Session& s = sessions_[peer];
  if (s.hello_sent) return;
  s.eph_priv = crypto::x25519_clamp(session_rng_.generate_array<32>());
  s.eph_pub = crypto::x25519_base(s.eph_priv);
  ++stats_.ecdh_ops;
  s.hello_sent = true;

  HelloFrame hello;
  hello.certificate = creds_.certificate.encode();
  hello.ephemeral_pub = s.eph_pub;
  hello.binding_sig = creds_.signing_keypair.sign(hello.signing_bytes());

  util::Bytes wire;
  wire.push_back(kOuterHello);
  util::append(wire, hello.encode());
  ++stats_.frames_sent;
  endpoint_->send(peer, std::move(wire));
}

void AdHocManager::handle_hello(sim::PeerId peer, util::ByteView payload) {
  auto hello = HelloFrame::decode(payload);
  if (!hello) {
    ++stats_.malformed_frames;
    return;
  }
  auto cert = pki::Certificate::decode(hello->certificate);
  if (!cert) {
    ++stats_.malformed_frames;
    return;
  }
  // Certificate chain check against the pinned CA root (Fig 2b: "validate
  // certificate"). The signature half rides the shared replay memo: the
  // same certificate is presented at every handshake with this identity.
  if (creds_.trust.verify(*cert, sched_->now(), verify_memo_) != pki::VerifyResult::Ok) {
    ++stats_.handshake_cert_rejected;
    endpoint_->disconnect(peer);
    return;
  }
  // The ephemeral key must be signed by the certified identity key,
  // otherwise an attacker could splice their own DH key into the session.
  if (!crypto::ed25519_verify(cert->subject_key, hello->signing_bytes(), hello->binding_sig)) {
    ++stats_.handshake_sig_rejected;
    endpoint_->disconnect(peer);
    return;
  }

  Session& s = sessions_[peer];
  if (s.secure && s.resumed && s.recv_ctr == 0) {
    // The peer fell back to a full handshake after we accepted a resume
    // (its cached secret aged out or was evicted between our frames). Our
    // resumed keys are orphaned: tear the session down and take the full
    // handshake so both sides converge on one key schedule. Only the
    // pre-traffic window qualifies — once a sealed frame has authenticated
    // under the resumed keys the peer demonstrably holds them, so a Hello
    // arriving later is stale or replayed and must not kill the session.
    ++stats_.sessions_lost;
    if (on_session_down) on_session_down(peer);
    s = Session{};
  }
  if (s.secure) return;  // duplicate/replayed hello on an established session
  if (!s.hello_sent) send_hello(peer);

  auto shared = crypto::x25519(s.eph_priv, hello->ephemeral_pub);
  ++stats_.ecdh_ops;
  // Directional keys: the lexicographically smaller ephemeral key sends
  // with the first half of the OKM.
  bool mine_first =
      // sos-lint: allow(memcmp-public) tie-break ordering over the two
      // ephemeral PUBLIC keys both sides already saw in plaintext Hellos.
      std::memcmp(s.eph_pub.data(), hello->ephemeral_pub.data(), s.eph_pub.size()) < 0;
  util::Bytes salt;
  if (mine_first) {
    salt = util::concat(s.eph_pub, hello->ephemeral_pub);
  } else {
    salt = util::concat(hello->ephemeral_pub, s.eph_pub);
  }
  // 96 bytes: 64 for the directional session keys plus 32 for the
  // resumption master secret. HKDF-Expand output is prefix-stable, so the
  // session keys are identical to the pre-resumption 64-byte schedule.
  auto okm = crypto::hkdf(salt, shared, util::to_bytes("sos-session-v1"), 96);
  ++stats_.full_handshakes;
  if (resume_lifetime_s_ > 0) {
    ResumeEntry entry;
    std::memcpy(entry.secret.data(), okm.data() + 64, entry.secret.size());
    entry.cert = *cert;
    entry.established_at = sched_->now();
    resume_cache_store(cert_fingerprint(*cert), std::move(entry));
  }
  mark_session_secure(peer, s, okm, mine_first, *cert);
}

void AdHocManager::mark_session_secure(sim::PeerId peer, Session& s, const util::Bytes& okm,
                                       bool mine_first, const pki::Certificate& peer_cert) {
  std::memcpy(s.send_key, okm.data() + (mine_first ? 0 : 32), 32);
  std::memcpy(s.recv_key, okm.data() + (mine_first ? 32 : 0), 32);
  s.send_ctr = 0;
  s.recv_ctr = 0;
  s.peer_cert = peer_cert;
  s.secure = true;
  ++stats_.sessions_established;
  // Remember which identity answers on this transport id so the next
  // contact can open with Resume.
  resume_hint_[peer] = cert_fingerprint(s.peer_cert);
  if (on_secure_session) on_secure_session(peer, s.peer_cert);
}

AdHocManager::Fingerprint AdHocManager::cert_fingerprint(const pki::Certificate& cert) {
  // Covers body and issuer signature: two certificates binding the same
  // identity but differing in any field hash to different entries.
  return crypto::Sha256::hash(cert.encode());
}

void AdHocManager::send_resume(sim::PeerId peer, const ResumeEntry& entry) {
  Session& s = sessions_[peer];
  if (s.resume_sent || s.hello_sent || s.secure) return;
  s.resume_nonce = session_rng_.generate_array<32>();
  // Snapshot the secret and certificate the attempt runs under: the peer's
  // answer is verified against this snapshot, immune to the cache entry
  // expiring or being evicted while the frames are in flight.
  s.resume_secret = entry.secret;
  s.resume_cert = entry.cert;
  s.resume_sent = true;

  ResumeFrame frame;
  frame.fingerprint = own_fingerprint_;
  frame.nonce = s.resume_nonce;
  frame.proof = crypto::hmac_sha256(util::ByteView(entry.secret.data(), entry.secret.size()),
                                    frame.signing_bytes());
  util::Bytes wire;
  wire.push_back(kOuterResume);
  util::append(wire, frame.encode());
  ++stats_.frames_sent;
  ++stats_.resume_attempts;
  endpoint_->send(peer, std::move(wire));
}

void AdHocManager::handle_resume(sim::PeerId peer, util::ByteView payload) {
  auto frame = ResumeFrame::decode(payload);
  if (!frame) {
    ++stats_.malformed_frames;
    return;
  }
  Session& s = sessions_[peer];
  if (s.secure) return;  // late duplicate on an established session

  // Locate the shared secret the proof claims: the snapshot of our own
  // in-flight attempt, or the cache entry for the claimed identity.
  const std::uint8_t* secret = nullptr;
  const pki::Certificate* peer_cert = nullptr;
  if (s.resume_sent) {
    if (frame->fingerprint != cert_fingerprint(s.resume_cert)) {
      // A different identity than the one we initiated with answered.
      ++stats_.resume_rejected;
      send_hello(peer);
      return;
    }
    secret = s.resume_secret.data();
    peer_cert = &s.resume_cert;
  } else {
    ResumeEntry* entry = resume_lookup(frame->fingerprint);
    if (entry == nullptr) {
      // Unknown identity, expired secret, or revoked certificate: make the
      // peer pay the full handshake.
      ++stats_.resume_rejected;
      send_hello(peer);
      return;
    }
    secret = entry->secret.data();
    peer_cert = &entry->cert;
  }
  util::ByteView secret_view(secret, 32);
  auto expect = crypto::hmac_sha256(secret_view, frame->signing_bytes());
  if (!util::ct_equal(util::ByteView(expect.data(), expect.size()),
                      util::ByteView(frame->proof.data(), frame->proof.size()))) {
    // Proof failure: a desynchronized secret or an active attacker. Fall
    // back to the full handshake; the cache entry is NOT erased, so a
    // spoofer cannot wipe legitimate resumption state.
    ++stats_.resume_rejected;
    send_hello(peer);
    return;
  }
  if (s.hello_sent) return;  // already committed to a full handshake

  if (!s.resume_sent) {
    // Responder role: answer with our own proof before deriving.
    ResumeEntry snapshot;
    std::memcpy(snapshot.secret.data(), secret, snapshot.secret.size());
    snapshot.cert = *peer_cert;
    send_resume(peer, snapshot);
  }
  // Fresh session keys from both nonces under the cached secret — the same
  // directional-split rule as the full handshake, keyed on the nonces.
  bool mine_first =
      // sos-lint: allow(memcmp-public) tie-break ordering over the two
      // resume nonces, which travel in plaintext Resume frames.
      std::memcmp(s.resume_nonce.data(), frame->nonce.data(), s.resume_nonce.size()) < 0;
  util::Bytes salt;
  if (mine_first) {
    salt = util::concat(s.resume_nonce, frame->nonce);
  } else {
    salt = util::concat(frame->nonce, s.resume_nonce);
  }
  auto okm = crypto::hkdf(salt, util::ByteView(s.resume_secret.data(), 32),
                          util::to_bytes("sos-resume-v1"), 64);
  s.resumed = true;
  ++stats_.sessions_resumed;
  mark_session_secure(peer, s, okm, mine_first, s.resume_cert);
}

AdHocManager::ResumeEntry* AdHocManager::resume_lookup(const Fingerprint& fp) {
  if (resume_lifetime_s_ <= 0) return nullptr;
  auto it = resume_cache_.find(fp);
  if (it == resume_cache_.end()) return nullptr;
  if (sched_->now() > it->second.established_at + resume_lifetime_s_) {
    // Expired: the forward-secrecy window closed; the next contact pays the
    // full handshake and mints a fresh secret.
    resume_cache_erase(it);
    return nullptr;
  }
  // The certificate behind the secret is re-validated on every use: a
  // revoked or expired identity must not ride a cached secret past the CRL.
  if (creds_.trust.verify(it->second.cert, sched_->now(), verify_memo_) !=
      pki::VerifyResult::Ok) {
    resume_cache_erase(it);
    return nullptr;
  }
  resume_lru_.splice(resume_lru_.begin(), resume_lru_, it->second.lru_it);
  return &it->second;
}

void AdHocManager::resume_cache_store(const Fingerprint& fp, ResumeEntry entry) {
  auto it = resume_cache_.find(fp);
  if (it != resume_cache_.end()) {
    entry.lru_it = it->second.lru_it;
    it->second = std::move(entry);
    resume_lru_.splice(resume_lru_.begin(), resume_lru_, it->second.lru_it);
    return;
  }
  resume_lru_.push_front(fp);
  entry.lru_it = resume_lru_.begin();
  resume_cache_.emplace(fp, std::move(entry));
  while (resume_cache_.size() > resume_cache_capacity_) {
    resume_cache_.erase(resume_lru_.back());
    resume_lru_.pop_back();
  }
}

void AdHocManager::resume_cache_erase(std::map<Fingerprint, ResumeEntry>::iterator it) {
  resume_lru_.erase(it->second.lru_it);
  resume_cache_.erase(it);
}

void AdHocManager::set_resume_lifetime(util::SimTime lifetime_s) {
  resume_lifetime_s_ = lifetime_s;
  if (resume_lifetime_s_ <= 0) {
    resume_cache_.clear();
    resume_lru_.clear();
  }
}

void AdHocManager::set_resume_cache_capacity(std::size_t capacity) {
  resume_cache_capacity_ = capacity > 0 ? capacity : 1;
  while (resume_cache_.size() > resume_cache_capacity_) {
    resume_cache_.erase(resume_lru_.back());
    resume_lru_.pop_back();
  }
}

void AdHocManager::forget_resume_secret(const std::array<std::uint8_t, 32>& fingerprint) {
  auto it = resume_cache_.find(fingerprint);
  if (it != resume_cache_.end()) resume_cache_erase(it);
}

void AdHocManager::save_state(util::Writer& w) const {
  // Sessions are transport-bound and cannot cross a checkpoint; the soak
  // runner only checkpoints at quiescent cuts where every contact (and thus
  // every session) has already ended.
  assert(sched_ == nullptr && sessions_.empty());
  session_rng_.save_state(w);
  w.u8(started_ ? 1 : 0);
  w.varint(advert_info_.size());
  for (const auto& [key, value] : advert_info_) {
    w.str(key);
    w.str(value);
  }
  // LRU lists serialize front (most recent) to back so the restored
  // eviction order is bit-identical.
  w.varint(verify_lru_.size());
  for (const bundle::BundleId& id : verify_lru_) {
    w.raw(id.origin.view());
    w.u32(id.msg_num);
    auto it = verify_cache_.find(id);
    assert(it != verify_cache_.end());
    w.raw(util::ByteView(it->second.digest.data(), it->second.digest.size()));
  }
  w.varint(resume_lru_.size());
  for (const Fingerprint& fp : resume_lru_) {
    auto it = resume_cache_.find(fp);
    assert(it != resume_cache_.end());
    w.raw(util::ByteView(fp.data(), fp.size()));
    w.raw(util::ByteView(it->second.secret.data(), it->second.secret.size()));
    w.bytes(it->second.cert.encode());
    w.f64(it->second.established_at);
  }
  w.varint(resume_hint_.size());
  for (const auto& [peer, fp] : resume_hint_) {
    w.u32(peer);
    w.raw(util::ByteView(fp.data(), fp.size()));
  }
}

bool AdHocManager::load_state(util::Reader& r) {
  assert(sched_ == nullptr && sessions_.empty());
  crypto::Drbg rng = session_rng_;
  if (!rng.load_state(r)) return false;
  std::uint8_t started = r.u8();
  std::uint64_t adverts = r.varint();
  sim::DiscoveryInfo advert_info;
  for (std::uint64_t i = 0; i < adverts && r.ok(); ++i) {
    std::string key = r.str();
    advert_info[key] = r.str();
  }
  std::uint64_t verify_n = r.varint();
  std::map<bundle::BundleId, VerifyCacheEntry> verify_cache;
  std::list<bundle::BundleId> verify_lru;
  for (std::uint64_t i = 0; i < verify_n && r.ok(); ++i) {
    bundle::BundleId id;
    id.origin.bytes = r.raw_array<pki::kUserIdSize>();
    id.msg_num = r.u32();
    VerifyDigest digest = r.raw_array<32>();
    verify_lru.push_back(id);
    verify_cache[id] = VerifyCacheEntry{digest, std::prev(verify_lru.end())};
  }
  std::uint64_t resume_n = r.varint();
  std::map<Fingerprint, ResumeEntry> resume_cache;
  std::list<Fingerprint> resume_lru;
  for (std::uint64_t i = 0; i < resume_n && r.ok(); ++i) {
    Fingerprint fp = r.raw_array<32>();
    ResumeEntry entry;
    entry.secret = r.raw_array<32>();
    auto cert = pki::Certificate::decode(r.bytes());
    entry.established_at = r.f64();
    if (!r.ok() || !cert) return false;
    entry.cert = std::move(*cert);
    resume_lru.push_back(fp);
    entry.lru_it = std::prev(resume_lru.end());
    resume_cache.emplace(fp, std::move(entry));
  }
  std::uint64_t hints = r.varint();
  std::map<sim::PeerId, Fingerprint> resume_hint;
  for (std::uint64_t i = 0; i < hints && r.ok(); ++i) {
    sim::PeerId peer = r.u32();
    resume_hint[peer] = r.raw_array<32>();
  }
  if (!r.ok()) return false;
  session_rng_ = std::move(rng);
  started_ = started != 0;
  advert_info_ = std::move(advert_info);
  verify_cache_ = std::move(verify_cache);
  verify_lru_ = std::move(verify_lru);
  resume_cache_ = std::move(resume_cache);
  resume_lru_ = std::move(resume_lru);
  resume_hint_ = std::move(resume_hint);
  return true;
}

void AdHocManager::send_frame(sim::PeerId peer, FrameType type, util::ByteView payload) {
  auto it = sessions_.find(peer);
  if (it == sessions_.end() || !it->second.secure) return;
  Session& s = it->second;

  util::Bytes plain;
  plain.push_back(static_cast<std::uint8_t>(type));
  util::append(plain, payload);

  std::uint8_t nonce[12];
  make_nonce(nonce, s.send_ctr++);
  auto sealed = crypto::aead_seal(s.send_key, nonce, util::to_bytes("sos-frame"), plain);

  util::Bytes wire;
  wire.push_back(kOuterSealed);
  util::append(wire, sealed);
  ++stats_.frames_sent;
  endpoint_->send(peer, std::move(wire));
}

void AdHocManager::handle_receive(sim::PeerId peer, util::Bytes wire) {
  ++stats_.frames_received;
  if (wire.empty()) {
    ++stats_.malformed_frames;
    return;
  }
  std::uint8_t outer = wire[0];
  util::ByteView body(wire.data() + 1, wire.size() - 1);
  if (outer == kOuterHello) {
    handle_hello(peer, body);
    return;
  }
  if (outer == kOuterResume) {
    handle_resume(peer, body);
    return;
  }
  if (outer != kOuterSealed) {
    ++stats_.malformed_frames;
    return;
  }
  auto it = sessions_.find(peer);
  if (it == sessions_.end() || !it->second.secure) {
    ++stats_.malformed_frames;  // sealed data before the handshake
    return;
  }
  Session& s = it->second;
  std::uint8_t nonce[12];
  // The counter advances only on successful authentication: a corrupted or
  // attacker-injected frame must not desynchronize the nonce sequence for
  // the legitimate traffic behind it.
  make_nonce(nonce, s.recv_ctr);
  auto plain = crypto::aead_open(s.recv_key, nonce, util::to_bytes("sos-frame"), body);
  if (!plain) {
    ++stats_.decrypt_failures;
    return;
  }
  ++s.recv_ctr;
  if (plain->empty()) {
    ++stats_.malformed_frames;
    return;
  }
  auto type = static_cast<FrameType>((*plain)[0]);
  util::Bytes payload(plain->begin() + 1, plain->end());
  if (on_frame) on_frame(peer, type, std::move(payload));
}

AdHocManager::VerifyDigest AdHocManager::verify_digest(util::ByteView bundle_signed,
                                                       const crypto::EdSignature& bundle_sig,
                                                       util::ByteView cert_signed,
                                                       const crypto::EdSignature& cert_sig) {
  // Unambiguous: both signing_bytes encodings are fixed-layout with
  // length-prefixed fields, and the signatures are fixed-size.
  crypto::Sha256 h;
  h.update(bundle_signed);
  h.update(util::ByteView(bundle_sig.data(), bundle_sig.size()));
  h.update(cert_signed);
  h.update(util::ByteView(cert_sig.data(), cert_sig.size()));
  return h.finish();
}

bool AdHocManager::verify_cache_hit(const bundle::BundleId& id, const VerifyDigest& digest) {
  auto it = verify_cache_.find(id);
  if (it == verify_cache_.end() || it->second.digest != digest) return false;
  verify_lru_.splice(verify_lru_.begin(), verify_lru_, it->second.lru_it);
  return true;
}

void AdHocManager::verify_cache_insert(const bundle::BundleId& id, const VerifyDigest& digest) {
  auto it = verify_cache_.find(id);
  if (it != verify_cache_.end()) {
    it->second.digest = digest;
    verify_lru_.splice(verify_lru_.begin(), verify_lru_, it->second.lru_it);
    return;
  }
  verify_lru_.push_front(id);
  verify_cache_.emplace(id, VerifyCacheEntry{digest, verify_lru_.begin()});
  while (verify_cache_.size() > verify_cache_capacity_) {
    verify_cache_.erase(verify_lru_.back());
    verify_lru_.pop_back();
  }
}

void AdHocManager::set_verify_cache_capacity(std::size_t capacity) {
  verify_cache_capacity_ = capacity > 0 ? capacity : 1;
  while (verify_cache_.size() > verify_cache_capacity_) {
    verify_cache_.erase(verify_lru_.back());
    verify_lru_.pop_back();
  }
}

bool AdHocManager::check_signature(const crypto::EdPublicKey& pub, util::ByteView msg,
                                   const crypto::EdSignature& sig) {
  if (verify_memo_) return verify_memo_->verify(pub, msg, sig);
  return crypto::ed25519_verify(pub, msg, sig);
}

bool AdHocManager::bundle_policy_ok(const bundle::Bundle& b, const pki::Certificate& cert) {
  if (creds_.trust.verify_policy(cert, sched_->now()) != pki::VerifyResult::Ok ||
      !(cert.subject_id == b.origin)) {
    ++stats_.bundle_cert_rejected;
    return false;
  }
  return true;
}

bool AdHocManager::verify_bundle(const bundle::Bundle& b, const pki::Certificate& origin_cert) {
  if (!verify_signatures_) return true;  // unsigned-baseline ablation
  // Policy half (issuer, validity window, CRL, identity binding): cheap and
  // time-dependent, evaluated on every reception — cached or not.
  if (!bundle_policy_ok(b, origin_cert)) return false;
  // Serialize once; the digest and both signature checks share the buffers.
  util::Bytes bundle_signed = b.signing_bytes();
  util::Bytes cert_signed = origin_cert.signing_bytes();
  VerifyDigest digest =
      verify_digest(bundle_signed, b.signature, cert_signed, origin_cert.signature);
  if (verify_cache_hit(b.id(), digest)) {
    ++stats_.bundle_sig_cache_hits;
    return true;
  }
  ++stats_.bundle_sig_cache_misses;
  if (!check_signature(creds_.trust.root_key(), cert_signed, origin_cert.signature)) {
    ++stats_.bundle_cert_rejected;
    return false;
  }
  if (!check_signature(origin_cert.subject_key, bundle_signed, b.signature)) {
    ++stats_.bundle_sig_rejected;
    return false;
  }
  verify_cache_insert(b.id(), digest);
  return true;
}

std::vector<bool> AdHocManager::verify_bundles(const std::vector<BundleToVerify>& batch) {
  if (!verify_signatures_) return std::vector<bool>(batch.size(), true);
  std::vector<bool> ok(batch.size(), false);

  // Cache/policy pass; survivors join one batch signature verification
  // covering both the CA signature on the certificate and the origin
  // signature on the bundle.
  struct Pending {
    std::size_t index;
    VerifyDigest digest;
    util::Bytes cert_signed;    // owns bytes the batch items view
    util::Bytes bundle_signed;  // owns bytes the batch items view
    std::size_t cert_item = 0;    // batch-item slot of the cert signature
    std::size_t bundle_item = 0;  // batch-item slot of the bundle signature
  };
  std::vector<Pending> pending;
  // Concurrent duplicates (the same bundle pulled from two peers in one
  // burst) collapse onto the first occurrence instead of being verified
  // twice within the batch.
  std::map<VerifyDigest, std::size_t> in_batch;               // digest -> pending slot
  std::vector<std::pair<std::size_t, std::size_t>> followers;  // (batch idx, pending slot)
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bundle::Bundle& b = *batch[i].bundle;
    const pki::Certificate& cert = *batch[i].cert;
    if (!bundle_policy_ok(b, cert)) continue;
    util::Bytes bundle_signed = b.signing_bytes();
    util::Bytes cert_signed = cert.signing_bytes();
    VerifyDigest digest = verify_digest(bundle_signed, b.signature, cert_signed, cert.signature);
    if (verify_cache_hit(b.id(), digest)) {
      ++stats_.bundle_sig_cache_hits;
      ok[i] = true;
      continue;
    }
    auto [dup, inserted] = in_batch.try_emplace(digest, pending.size());
    if (!inserted) {
      followers.emplace_back(i, dup->second);  // stats counted on resolution
      continue;
    }
    ++stats_.bundle_sig_cache_misses;
    pending.push_back(
        Pending{i, digest, std::move(cert_signed), std::move(bundle_signed), 0, 0});
  }
  if (pending.empty()) return ok;  // a follower always has a leader in pending

  // One batch item per DISTINCT certificate (a burst from one origin pays
  // the CA-signature check once) plus one per bundle. Dedup keys on a hash
  // of the full certificate body AND signature: a forged body carrying a
  // copied signature must not alias onto a legitimate certificate's
  // verdict, and hashing avoids copying the body into the map key.
  std::vector<crypto::EdBatchItem> items;
  std::map<crypto::Sha256::Digest, std::size_t> cert_items;
  for (Pending& p : pending) {
    const pki::Certificate& cert = *batch[p.index].cert;
    crypto::Sha256 ch;
    ch.update(p.cert_signed);
    ch.update(util::ByteView(cert.signature.data(), cert.signature.size()));
    auto [cit, fresh] = cert_items.try_emplace(ch.finish(), items.size());
    if (fresh) items.push_back({creds_.trust.root_key(), p.cert_signed, cert.signature});
    p.cert_item = cit->second;
    p.bundle_item = items.size();
    items.push_back({cert.subject_key, p.bundle_signed, batch[p.index].bundle->signature});
  }
  ++stats_.bundle_batch_verifies;
  std::vector<bool> verdicts;
  if (verify_memo_) {
    // Resolve what the shared memo already knows and batch only the residue.
    // Counter semantics are untouched: the simulated node performed one
    // batch pass either way; the memo only skips redundant curve math, and
    // a fallback means what it always meant — some entry was bad.
    verdicts.assign(items.size(), false);
    std::vector<std::size_t> unknown;
    std::vector<crypto::VerifyMemo::Key> unknown_keys;  // hashed once, reused by store
    for (std::size_t i = 0; i < items.size(); ++i) {
      auto key = crypto::VerifyMemo::key_of(items[i].pub, items[i].msg, items[i].sig);
      if (auto known = verify_memo_->lookup(key)) {
        verdicts[i] = *known;
      } else {
        unknown.push_back(i);
        unknown_keys.push_back(key);
      }
    }
    if (!unknown.empty()) {
      std::vector<crypto::EdBatchItem> residue;
      residue.reserve(unknown.size());
      for (std::size_t i : unknown) residue.push_back(items[i]);
      std::vector<bool> residue_verdicts;
      crypto::ed25519_verify_batch(residue, &residue_verdicts);
      for (std::size_t k = 0; k < unknown.size(); ++k) {
        verdicts[unknown[k]] = residue_verdicts[k];
        verify_memo_->store(unknown_keys[k], residue_verdicts[k]);
      }
    }
    bool all_ok = true;
    for (bool v : verdicts) all_ok = all_ok && v;
    if (!all_ok) ++stats_.bundle_batch_fallbacks;
  } else if (!crypto::ed25519_verify_batch(items, &verdicts)) {
    ++stats_.bundle_batch_fallbacks;
  }

  for (const Pending& p : pending) {
    if (!verdicts[p.cert_item]) {
      ++stats_.bundle_cert_rejected;
    } else if (!verdicts[p.bundle_item]) {
      ++stats_.bundle_sig_rejected;
    } else {
      verify_cache_insert(batch[p.index].bundle->id(), p.digest);
      ok[p.index] = true;
    }
  }
  for (const auto& [batch_idx, pending_slot] : followers) {
    const Pending& leader = pending[pending_slot];
    ok[batch_idx] = ok[leader.index];
    // Mirror the leader's verdict in the stats so every batch entry is
    // visible as exactly one of: cache hit, verified miss, or rejection.
    if (ok[batch_idx])
      ++stats_.bundle_sig_cache_hits;  // duplicate skipped verify
    else if (!verdicts[leader.cert_item])
      ++stats_.bundle_cert_rejected;
    else
      ++stats_.bundle_sig_rejected;
  }
  return ok;
}

}  // namespace sos::mw
