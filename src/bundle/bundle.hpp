// DTN bundle: the unit every routing scheme stores and forwards. A bundle
// is identified by (origin user id, per-user message number) — exactly the
// pair the paper's discovery dictionary advertises — and carries an Ed25519
// origin signature so any receiver can "verify the originating source of
// the information being forwarded and ensure that data have not been
// modified" (§IV) without infrastructure.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>

#include "crypto/ed25519.hpp"
#include "pki/certificate.hpp"
#include "pki/identity.hpp"
#include "util/bytes.hpp"
#include "util/codec.hpp"
#include "util/time.hpp"

namespace sos::bundle {

enum class ContentType : std::uint8_t {
  SocialPost = 0,     // publish/subscribe payload (AlleyOop posts)
  DirectMessage = 1,  // unicast, payload end-to-end encrypted for dest
  ControlAction = 2,  // app control records (e.g. follow/unfollow sync)
};

struct BundleId {
  pki::UserId origin;
  std::uint32_t msg_num = 0;

  auto operator<=>(const BundleId&) const = default;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.origin, s.msg_num);
  }
};

struct Bundle {
  pki::UserId origin;              // publisher's 10-byte user id
  std::uint32_t msg_num = 0;       // per-publisher sequence number
  util::SimTime creation_ts = 0;
  std::uint32_t lifetime_s = 0;    // 0 = no expiry
  ContentType content = ContentType::SocialPost;
  pki::UserId dest;                // all-zero for pub/sub posts
  std::uint8_t hop_count = 0;      // incremented per D2D hop (not signed)
  util::Bytes payload;
  crypto::EdSignature signature{}; // origin's signature over signing_bytes()

  BundleId id() const { return {origin, msg_num}; }

  /// Wire layout. The origin signature covers every field but hop_count,
  /// which is per-copy relay metadata, and the signature itself.
  static constexpr std::string_view kSigningDomain = "sos-bundle-v1";
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.origin, s.msg_num, s.creation_ts, s.lifetime_s,
      util::enum_u8(s.content, ContentType::ControlAction), s.dest,
      util::per_copy(s.hop_count), s.payload, util::unsigned_field(s.signature));
  }

  util::Bytes signing_bytes() const { return util::signing_bytes(*this); }

  void sign(const crypto::Ed25519Keypair& origin_keys);
  bool verify(const crypto::EdPublicKey& origin_key) const;

  bool expired(util::SimTime now) const {
    return lifetime_s > 0 && now > creation_ts + static_cast<double>(lifetime_s);
  }
  bool is_unicast() const { return !dest.is_zero(); }

  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<Bundle> decode(util::ByteView data) { return util::decode<Bundle>(data); }
};

}  // namespace sos::bundle
