// Certificate authority and device-side trust store. The CA is the
// infrastructure half of the paper's one-time requirement (Fig 2a); the
// trust store is what ships to the device (root certificate + CRL snapshot)
// and makes all later verification work offline.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include "crypto/ed25519.hpp"
#include "crypto/verify_memo.hpp"
#include "pki/certificate.hpp"

namespace sos::pki {

enum class VerifyResult {
  Ok,
  BadSignature,
  UnknownIssuer,
  Expired,
  NotYetValid,
  Revoked,
};

class CertificateAuthority {
 public:
  CertificateAuthority(std::string name, const crypto::EdSeed& seed,
                       util::SimTime cert_lifetime = util::days(365));

  const std::string& name() const { return name_; }
  const crypto::EdPublicKey& root_public_key() const { return keypair_.public_key(); }

  /// Issue a certificate for a verified CSR. Fails (nullopt) when the
  /// proof-of-possession is invalid — a malicious device cannot obtain a
  /// certificate for a key it does not hold.
  std::optional<Certificate> issue(const CertificateRequest& csr, util::SimTime now);

  void revoke(std::uint64_t serial);
  const std::set<std::uint64_t>& revocation_list() const { return crl_; }
  std::uint64_t issued_count() const { return next_serial_ - 1; }

 private:
  std::string name_;
  crypto::Ed25519Keypair keypair_;
  util::SimTime cert_lifetime_;
  std::uint64_t next_serial_ = 1;
  std::set<std::uint64_t> crl_;
};

/// Device-side verifier: pinned root + CRL snapshot (updating the CRL needs
/// Internet, exactly the limitation §IV discusses).
class TrustStore {
 public:
  TrustStore() = default;
  TrustStore(std::string issuer_name, crypto::EdPublicKey root_key);

  void set_root(std::string issuer_name, crypto::EdPublicKey root_key);
  void update_crl(std::set<std::uint64_t> crl);
  void add_revoked(std::uint64_t serial);

  /// Full chain decision: issuer known, signature valid, within validity
  /// window, not revoked. `memo`, when non-null, memoizes the signature
  /// half across calls (replay engines share one memo between all nodes —
  /// the verdict is a pure function of root key, body, and signature).
  VerifyResult verify(const Certificate& cert, util::SimTime now,
                      crypto::VerifyMemo* memo = nullptr) const;

  /// The cheap, time-dependent half of verify(): issuer known, within
  /// validity window, not revoked — no signature check. Callers that cache
  /// signature verdicts (the middleware's verified-bundle cache) re-evaluate
  /// this on every use so expiry and revocation still bite.
  VerifyResult verify_policy(const Certificate& cert, util::SimTime now) const;

  /// The expensive half: the root's signature over the certificate body.
  bool verify_signature(const Certificate& cert, crypto::VerifyMemo* memo = nullptr) const;

  /// Pinned root key (for callers that check the certificate signature
  /// against already-serialized bytes).
  const crypto::EdPublicKey& root_key() const { return root_key_; }

  /// CRL snapshot size — surfaced as a soak metric. Growth bound: entries
  /// enter only through update_crl/add_revoked, both driven by the CA's
  /// revoke() of an issued serial, so the set is bounded by the CA's
  /// issued_count() (one certificate per node in every scenario here).
  /// Adversaries forge signatures and corrupt frames; none of them can mint
  /// CRL entries, so month-scale soaks must see this stay flat after setup.
  std::size_t crl_size() const { return crl_.size(); }

 private:
  std::string issuer_name_;
  crypto::EdPublicKey root_key_{};
  bool has_root_ = false;
  std::set<std::uint64_t> crl_;
};

}  // namespace sos::pki
