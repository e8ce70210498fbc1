#include "mw/sos_node.hpp"

#include <cassert>
#include <cstring>

#include "crypto/aead.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/x25519.hpp"
#include "mw/schemes/adversary.hpp"
#include "mw/schemes/direct.hpp"
#include "mw/schemes/epidemic.hpp"
#include "mw/schemes/interest_based.hpp"
#include "mw/schemes/prophet.hpp"
#include "mw/schemes/spray_wait.hpp"
#include "util/codec.hpp"

namespace sos::mw {

namespace {

template <class Scheme>
std::unique_ptr<RoutingScheme> make() {
  return std::make_unique<Scheme>();
}

struct SchemeEntry {
  const char* name;
  std::unique_ptr<RoutingScheme> (*make)();
};

constexpr SchemeEntry kSchemes[] = {
    {"epidemic", make<EpidemicScheme>}, {"interest", make<InterestBasedScheme>},
    {"spray", make<SprayAndWaitScheme>}, {"prophet", make<ProphetScheme>},
    {"direct", make<DirectDeliveryScheme>}, {"blackhole", make<BlackholeScheme>},
};

}  // namespace

std::unique_ptr<RoutingScheme> make_scheme(const std::string& name) {
  for (const SchemeEntry& entry : kSchemes)
    if (name == entry.name) return entry.make();
  return nullptr;
}

std::vector<std::string> scheme_names() {
  std::vector<std::string> names;
  for (const SchemeEntry& entry : kSchemes) names.emplace_back(entry.name);
  return names;
}

SosNode::SosNode(sim::Scheduler& sched, sim::MpcEndpoint& endpoint, pki::DeviceCredentials creds,
                 SosConfig config)
    : sched_(&sched), creds_(std::move(creds)), config_(std::move(config)) {
  adhoc_ = std::make_unique<AdHocManager>(sched, endpoint, creds_, stats_);
  // The verified-bundle cache only needs to cover what can be re-received,
  // which is bounded by what peers can still be carrying: the store size.
  adhoc_->set_verify_cache_capacity(config_.store_capacity);
  adhoc_->set_resume_cache_capacity(config_.resume_cache_capacity);
  adhoc_->set_resume_lifetime(config_.resume_lifetime_s);
  adhoc_->set_verify_signatures(config_.verify_signatures);
  msgs_ = std::make_unique<MessageManager>(*adhoc_, stats_, config_.store_capacity);
  auto scheme = make_scheme(config_.scheme);
  if (!scheme) scheme = std::make_unique<InterestBasedScheme>();
  routing_ = std::make_unique<RoutingManager>(sched, *msgs_, stats_, std::move(scheme));
  routing_->on_deliver = [this](const bundle::Bundle& b, const pki::Certificate& cert) {
    if (on_data) on_data(b, cert);
  };
  routing_->on_carry = [this](const bundle::Bundle& b) {
    if (on_carry) on_carry(b);
  };
}

void SosNode::start() {
  adhoc_->start();
  routing_->start(config_.maintenance_interval_s);
}

void SosNode::detach() {
  // Live sessions cannot outlive their transport: drop them while the full
  // stack is still attached, so the session-down cascade (routing cleanup)
  // runs with a working scheduler. Quiescent detaches — task boundaries —
  // make this a no-op.
  adhoc_->drop_live_sessions();
  // The routing manager cancels its timers on the departing scheduler
  // before the ad hoc manager releases the transport.
  routing_->detach();
  adhoc_->detach();
  sched_ = nullptr;
}

void SosNode::attach(sim::Scheduler& sched, sim::MpcEndpoint& endpoint) {
  sched_ = &sched;
  adhoc_->attach(sched, endpoint);
  routing_->attach(sched);
}

bool SosNode::attached() const {
  return sched_ != nullptr;
}

void SosNode::save_state(util::Writer& w, bundle::RecordTable& records) const {
  assert(!attached());
  w.u32(next_msg_num_);
  for_each_stat([&](const char*, std::uint64_t v) { w.u64(v); }, stats_);
  w.framed([&](util::Writer& sub) { adhoc_->save_state(sub, records); });
  w.framed([&](util::Writer& sub) { msgs_->save_state(sub, records); });
  w.framed([&](util::Writer& sub) { routing_->save_state(sub); });
}

bool SosNode::load_state(util::Reader& r, const bundle::RecordTable& records) {
  assert(!attached());
  std::uint32_t next_msg_num = r.u32();
  NodeStats stats;
  for_each_stat([&](const char*, std::uint64_t& v) { v = r.u64(); }, stats);
  util::Reader adhoc_state = r.framed();
  util::Reader msgs_state = r.framed();
  util::Reader routing_state = r.framed();
  if (!r.ok()) return false;
  if (!adhoc_->load_state(adhoc_state, records) || !adhoc_state.done()) return false;
  if (!msgs_->load_state(msgs_state, records) || !msgs_state.done()) return false;
  if (!routing_->load_state(routing_state) || !routing_state.done()) return false;
  next_msg_num_ = next_msg_num;
  stats_ = stats;
  return true;
}

void SosNode::reboot(bool lose_store, bool lose_resume_cache) {
  // Any session still live dies with the power (the fault plan clips
  // contacts out of down-windows, so this is normally a no-op); the drop
  // cascade must run while the full stack still has its RAM state.
  adhoc_->drop_live_sessions();
  msgs_->reset_after_reboot(lose_store);
  adhoc_->reset_after_reboot(lose_resume_cache);
  // Come back up advertising whatever survived in the store.
  routing_->refresh_advertisement();
  ++stats_.reboots;
}

bool SosNode::set_scheme(const std::string& name) {
  auto scheme = make_scheme(name);
  if (!scheme) return false;
  routing_->set_scheme(std::move(scheme));
  return true;
}

bundle::BundleId SosNode::publish(util::Bytes payload, bundle::ContentType type) {
  bundle::Bundle b;
  b.origin = creds_.user_id;
  b.msg_num = next_msg_num_++;
  b.creation_ts = sched_->now();
  b.lifetime_s = config_.bundle_lifetime_s;
  b.content = type;
  b.payload = std::move(payload);
  b.sign(creds_.signing_keypair);
  // Forged-signature storm: a real signing pass, then one flipped byte —
  // structurally valid, cryptographically worthless.
  if (config_.forge_signatures) b.signature[0] ^= 0x5a;
  bundle::BundleId id = b.id();
  routing_->publish(std::move(b));
  return id;
}

namespace {
constexpr std::size_t kDmOverhead = crypto::kX25519KeySize + crypto::kAeadTagSize;
// Associated data bound into every sealed direct message.
constexpr auto kDmAad = util::literal_bytes("sos-dm");

util::Bytes derive_dm_key(const crypto::X25519Key& shared, const crypto::X25519Key& eph_pub,
                          const crypto::X25519Key& dest_pub) {
  auto salt = util::concat(eph_pub, dest_pub);
  return crypto::hkdf(salt, shared, util::to_bytes("sos-dm-v1"), crypto::kAeadKeySize);
}
}  // namespace

bundle::BundleId SosNode::send_direct(const pki::Certificate& dest_cert,
                                      util::ByteView plaintext) {
  // Ephemeral-static X25519: seal for the destination's certified key.
  crypto::Drbg eph_rng(util::concat(util::to_bytes("dm-eph"), creds_.user_id.view(),
                                    util::Bytes{static_cast<std::uint8_t>(next_msg_num_),
                                                static_cast<std::uint8_t>(next_msg_num_ >> 8)}));
  auto eph_priv = crypto::x25519_clamp(eph_rng.generate_array<32>());
  auto eph_pub = crypto::x25519_base(eph_priv);
  auto shared = crypto::x25519(eph_priv, dest_cert.subject_enc_key);
  auto key = derive_dm_key(shared, eph_pub, dest_cert.subject_enc_key);

  std::uint8_t nonce[crypto::kAeadNonceSize] = {0};
  auto sealed = crypto::aead_seal(key.data(), nonce, kDmAad, plaintext);

  bundle::Bundle b;
  b.origin = creds_.user_id;
  b.msg_num = next_msg_num_++;
  b.creation_ts = sched_->now();
  b.lifetime_s = config_.bundle_lifetime_s;
  b.content = bundle::ContentType::DirectMessage;
  b.dest = dest_cert.subject_id;
  b.payload = util::concat(eph_pub, sealed);
  b.sign(creds_.signing_keypair);
  bundle::BundleId id = b.id();
  // Remember the destination certificate so it can be forwarded (Fig 3b).
  msgs_->remember_certificate(dest_cert);
  routing_->publish(std::move(b));
  return id;
}

std::optional<util::Bytes> SosNode::open_direct(const bundle::Bundle& b) const {
  if (!(b.dest == creds_.user_id)) return std::nullopt;
  if (b.payload.size() < kDmOverhead) return std::nullopt;
  crypto::X25519Key eph_pub{};
  std::memcpy(eph_pub.data(), b.payload.data(), eph_pub.size());
  auto shared = crypto::x25519(creds_.enc_private_key, eph_pub);
  // A low-order ephemeral key yields the all-zero secret: anyone could have
  // sealed under the key it derives (RFC 7748 §6.1).
  if (crypto::x25519_is_zero(shared)) return std::nullopt;
  auto key = derive_dm_key(shared, eph_pub, creds_.enc_public_key);
  std::uint8_t nonce[crypto::kAeadNonceSize] = {0};
  util::ByteView sealed(b.payload.data() + eph_pub.size(), b.payload.size() - eph_pub.size());
  return crypto::aead_open(key.data(), nonce, kDmAad, sealed);
}

}  // namespace sos::mw
