// Wire frames exchanged between two SOS middleware instances over a D2D
// session. Only Hello travels in plain text (it carries the certificate
// that bootstraps the encrypted channel, mirroring Fig 2b/3); every other
// frame is sealed by the ad hoc manager's session AEAD.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "bundle/bundle.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/x25519.hpp"
#include "pki/certificate.hpp"
#include "util/bytes.hpp"
#include "util/codec.hpp"

namespace sos::mw {

enum class FrameType : std::uint8_t {
  Hello = 1,       // plaintext: certificate + ephemeral key + binding sig
  Summary = 2,     // sealed: store summary + scheme blob (Fig 2b step 2)
  Request = 3,     // sealed: what the browser wants (Fig 2b step 3)
  BundleData = 4,  // sealed: bundle + origin certificate (Fig 3b)
  Resume = 5,      // plaintext: 1-RTT session resumption proof (recurring
                   // contacts skip the cert exchange + X25519)
};

/// Most entries a Summary or Request list may carry.
inline constexpr std::uint64_t kMaxFrameEntries = 1'000'000;

/// First frame on a new session, both directions.
struct HelloFrame {
  util::Bytes certificate;           // encoded pki::Certificate
  crypto::X25519Key ephemeral_pub{}; // fresh per-session X25519 public key
  crypto::EdSignature binding_sig{}; // cert key's signature over the eph key

  /// The binding signature covers only the ephemeral key.
  static constexpr std::string_view kSigningDomain = "sos-hello-v1";
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(util::unsigned_field(s.certificate), s.ephemeral_pub, util::unsigned_field(s.binding_sig));
  }

  util::Bytes signing_bytes() const { return util::signing_bytes(*this); }
  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<HelloFrame> decode(util::ByteView data) {
    return util::decode<HelloFrame>(data);
  }
};

/// Session resumption (FrameType::Resume), sent instead of Hello when the
/// sender holds a cached resumption secret for the peer from an earlier
/// full handshake. Travels in plain text like Hello: it carries no secret
/// material, only the sender's certificate fingerprint (so the receiver can
/// find the shared secret), a fresh nonce, and an HMAC proof of secret
/// possession. Both sides send one; session keys come from
/// HKDF(nonce_a || nonce_b, secret) — zero X25519 operations.
struct ResumeFrame {
  std::array<std::uint8_t, 32> fingerprint{};  // SHA-256 of sender's certificate
  std::array<std::uint8_t, 32> nonce{};        // fresh per resume attempt
  std::array<std::uint8_t, 32> proof{};        // HMAC-SHA256(secret, signing_bytes())

  /// The HMAC proof covers the fingerprint and the nonce.
  static constexpr std::string_view kSigningDomain = "sos-resume-v1";
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.fingerprint, s.nonce, util::unsigned_field(s.proof));
  }

  util::Bytes signing_bytes() const { return util::signing_bytes(*this); }
  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<ResumeFrame> decode(util::ByteView data) {
    return util::decode<ResumeFrame>(data);
  }
};

/// In-session store summary. `entries` is the same UserID->MessageNumber
/// dictionary the plain-text advertisement carries; `unicast` lists
/// direct-message bundles with their destinations so unicast schemes can
/// make per-destination decisions; `scheme_blob` is opaque scheme state
/// (PRoPHET ships its delivery-predictability table here).
struct SummaryFrame {
  std::map<pki::UserId, std::uint32_t> entries;
  struct UnicastEntry {
    bundle::BundleId id;
    pki::UserId dest;

    template <class S, class F>
    static void fields(S& s, F&& f) {
      f(s.id, s.dest);
    }
  };
  std::vector<UnicastEntry> unicast;
  util::Bytes scheme_blob;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(util::bounded(s.entries, kMaxFrameEntries), util::bounded(s.unicast, kMaxFrameEntries),
      s.scheme_blob);
  }

  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<SummaryFrame> decode(util::ByteView data) {
    return util::decode<SummaryFrame>(data);
  }
};

/// What the requesting side wants: per-publisher "everything newer than N"
/// plus individually addressed bundles (unicast routing).
struct RequestFrame {
  std::vector<std::pair<pki::UserId, std::uint32_t>> by_publisher;
  std::vector<bundle::BundleId> by_id;

  bool empty() const { return by_publisher.empty() && by_id.empty(); }

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(util::bounded(s.by_publisher, kMaxFrameEntries), util::bounded(s.by_id, kMaxFrameEntries));
  }

  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<RequestFrame> decode(util::ByteView data) {
    return util::decode<RequestFrame>(data);
  }
};

/// One bundle in flight, accompanied by the origin's certificate so the
/// receiver can authenticate provenance offline (Fig 3b: Bob forwards
/// Alice's certificate to Carol).
struct BundleDataFrame {
  util::Bytes bundle;       // encoded bundle::Bundle
  util::Bytes origin_cert;  // encoded pki::Certificate of the publisher
  std::uint32_t spray_copies = 0;  // Spray-and-Wait copy budget (0 = n/a)

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.bundle, s.origin_cert, s.spray_copies);
  }

  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<BundleDataFrame> decode(util::ByteView data) {
    return util::decode<BundleDataFrame>(data);
  }
};

/// BundleDataFrame's layout over a decoded bundle and certificate: each is
/// written in place behind its length prefix, with no encoding of either
/// built first. Encodes to the same bytes as
/// BundleDataFrame{b.encode(), cert.encode(), copies}.
struct BundleDataRef {
  const bundle::Bundle& bundle;
  const pki::Certificate& origin_cert;
  std::uint32_t spray_copies = 0;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(util::framed(s.bundle), util::framed(s.origin_cert), s.spray_copies);
  }
};

}  // namespace sos::mw
