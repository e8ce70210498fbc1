// X.509-lite certificates, standing in for the paper's X.509 deployment:
// the same trust decisions — identity binding, issuer signature, validity
// window, serial for revocation — without ASN.1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "crypto/ed25519.hpp"
#include "crypto/x25519.hpp"
#include "pki/identity.hpp"
#include "util/bytes.hpp"
#include "util/codec.hpp"
#include "util/time.hpp"

namespace sos::pki {

struct Certificate {
  std::uint64_t serial = 0;
  UserId subject_id;                 // the paper's unique user-identifier
  std::string subject_name;          // human-readable account name
  crypto::EdPublicKey subject_key{};  // subject's Ed25519 signing key
  crypto::X25519Key subject_enc_key{};  // subject's X25519 key for E2E encryption
  std::string issuer_name;
  util::SimTime not_before = 0;
  util::SimTime not_after = 0;
  crypto::EdSignature signature{};   // issuer's signature over signing_bytes()

  /// Wire layout; the issuer signature covers every other field.
  static constexpr std::string_view kSigningDomain = "sos-cert-v1";
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.serial, s.subject_id, s.subject_name, s.subject_key, s.subject_enc_key, s.issuer_name,
      s.not_before, s.not_after, util::unsigned_field(s.signature));
  }

  util::Bytes signing_bytes() const { return util::signing_bytes(*this); }
  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<Certificate> decode(util::ByteView data) {
    return util::decode<Certificate>(data);
  }

  bool valid_at(util::SimTime now) const { return now >= not_before && now <= not_after; }
};

/// Certificate signing request: what a device sends to the CA at signup
/// (Fig 2a step: "generate keys, send CSR with unique user-identifier").
struct CertificateRequest {
  UserId subject_id;
  std::string subject_name;
  crypto::EdPublicKey subject_key{};
  crypto::X25519Key subject_enc_key{};
  /// Proof-of-possession: self-signature over the request fields.
  crypto::EdSignature pop_signature{};

  static constexpr std::string_view kSigningDomain = "sos-csr-v1";
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.subject_id, s.subject_name, s.subject_key, s.subject_enc_key,
      util::unsigned_field(s.pop_signature));
  }

  util::Bytes signing_bytes() const { return util::signing_bytes(*this); }
  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<CertificateRequest> decode(util::ByteView data) {
    return util::decode<CertificateRequest>(data);
  }

  static CertificateRequest create(const UserId& id, const std::string& name,
                                   const crypto::Ed25519Keypair& keypair,
                                   const crypto::X25519Key& enc_public_key);
  bool verify_pop() const;
};

}  // namespace sos::pki
