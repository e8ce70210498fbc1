#include "pki/authority.hpp"

namespace sos::pki {

CertificateAuthority::CertificateAuthority(std::string name, const crypto::EdSeed& seed,
                                           util::SimTime cert_lifetime)
    : name_(std::move(name)),
      keypair_(crypto::Ed25519Keypair::from_seed(seed)),
      cert_lifetime_(cert_lifetime) {}

std::optional<Certificate> CertificateAuthority::issue(const CertificateRequest& csr,
                                                       util::SimTime now) {
  if (!csr.verify_pop()) return std::nullopt;
  Certificate cert;
  cert.serial = next_serial_++;
  cert.subject_id = csr.subject_id;
  cert.subject_name = csr.subject_name;
  cert.subject_key = csr.subject_key;
  cert.subject_enc_key = csr.subject_enc_key;
  cert.issuer_name = name_;
  cert.not_before = now;
  cert.not_after = now + cert_lifetime_;
  cert.signature = keypair_.sign(cert.signing_bytes());
  return cert;
}

void CertificateAuthority::revoke(std::uint64_t serial) {
  crl_.insert(serial);
}

TrustStore::TrustStore(std::string issuer_name, crypto::EdPublicKey root_key) {
  set_root(std::move(issuer_name), root_key);
}

void TrustStore::set_root(std::string issuer_name, crypto::EdPublicKey root_key) {
  issuer_name_ = std::move(issuer_name);
  root_key_ = root_key;
  has_root_ = true;
}

void TrustStore::update_crl(std::set<std::uint64_t> crl) {
  crl_ = std::move(crl);
}

void TrustStore::add_revoked(std::uint64_t serial) {
  crl_.insert(serial);
}

VerifyResult TrustStore::verify(const Certificate& cert, util::SimTime now,
                                crypto::VerifyMemo* memo) const {
  if (!has_root_ || cert.issuer_name != issuer_name_) return VerifyResult::UnknownIssuer;
  if (!verify_signature(cert, memo)) return VerifyResult::BadSignature;
  if (now < cert.not_before) return VerifyResult::NotYetValid;
  if (now > cert.not_after) return VerifyResult::Expired;
  if (crl_.count(cert.serial) > 0) return VerifyResult::Revoked;
  return VerifyResult::Ok;
}

VerifyResult TrustStore::verify_policy(const Certificate& cert, util::SimTime now) const {
  if (!has_root_ || cert.issuer_name != issuer_name_) return VerifyResult::UnknownIssuer;
  if (now < cert.not_before) return VerifyResult::NotYetValid;
  if (now > cert.not_after) return VerifyResult::Expired;
  if (crl_.count(cert.serial) > 0) return VerifyResult::Revoked;
  return VerifyResult::Ok;
}

bool TrustStore::verify_signature(const Certificate& cert, crypto::VerifyMemo* memo) const {
  util::Bytes body = cert.signing_bytes();
  if (memo) return memo->verify(root_key_, body, cert.signature);
  return crypto::ed25519_verify(root_key_, body, cert.signature);
}

}  // namespace sos::pki
