// PKI tests: identity derivation, certificate encode/verify, CA issuance,
// trust-store chain decisions, and the full Fig 2a one-time bootstrap flow
// including the malicious-identifier attack the paper discusses.
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/x25519.hpp"
#include "pki/authority.hpp"
#include "pki/bootstrap.hpp"
#include "pki/certificate.hpp"
#include "pki/identity.hpp"

namespace sp = sos::pki;
namespace sc = sos::crypto;
namespace su = sos::util;

namespace {
sc::Ed25519Keypair make_keys(const std::string& label) {
  sc::Drbg d(su::to_bytes(label));
  return sc::Ed25519Keypair::from_seed(d.generate_array<32>());
}

sc::X25519Key enc_key_for(const std::string& label) {
  sc::Drbg d(su::to_bytes("enc-" + label));
  return sc::x25519_base(sc::x25519_clamp(d.generate_array<32>()));
}

sp::CertificateAuthority make_ca(const std::string& label = "test-ca") {
  sc::Drbg d(su::to_bytes("ca-seed-" + label));
  return sp::CertificateAuthority(label, d.generate_array<32>());
}
}  // namespace

// --- identity -------------------------------------------------------------

TEST(Identity, TenBytesSixteenChars) {
  auto id = sp::user_id_from_name("alice");
  EXPECT_EQ(id.bytes.size(), 10u);
  EXPECT_EQ(id.to_string().size(), 16u);  // paper: 10-byte id string key
}

TEST(Identity, DeterministicAndDistinct) {
  EXPECT_EQ(sp::user_id_from_name("alice"), sp::user_id_from_name("alice"));
  EXPECT_NE(sp::user_id_from_name("alice"), sp::user_id_from_name("bob"));
}

TEST(Identity, StringRoundTrip) {
  auto id = sp::user_id_from_name("carol");
  auto back = sp::UserId::from_string(id.to_string());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, id);
}

TEST(Identity, FromStringRejectsBadInput) {
  EXPECT_FALSE(sp::UserId::from_string("").has_value());
  EXPECT_FALSE(sp::UserId::from_string("!!!").has_value());
  EXPECT_FALSE(sp::UserId::from_string("MZXW6").has_value());  // wrong length
}

TEST(Identity, ZeroCheck) {
  sp::UserId zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(sp::user_id_from_name("x").is_zero());
}

// --- certificates -----------------------------------------------------------

TEST(Certificate, EncodeDecodeRoundTrip) {
  auto ca = make_ca();
  auto keys = make_keys("alice");
  auto csr = sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", keys, enc_key_for("alice"));
  auto cert = ca.issue(csr, 100.0);
  ASSERT_TRUE(cert.has_value());
  auto decoded = sp::Certificate::decode(cert->encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->serial, cert->serial);
  EXPECT_EQ(decoded->subject_id, cert->subject_id);
  EXPECT_EQ(decoded->subject_name, "alice");
  EXPECT_EQ(decoded->subject_key, keys.public_key());
  EXPECT_EQ(decoded->signature, cert->signature);
}

TEST(Certificate, DecodeRejectsTruncation) {
  auto ca = make_ca();
  auto keys = make_keys("alice");
  auto csr = sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", keys, enc_key_for("alice"));
  auto cert = ca.issue(csr, 100.0);
  ASSERT_TRUE(cert.has_value());
  auto enc = cert->encode();
  for (std::size_t cut : {1u, 10u, 32u}) {
    su::Bytes bad(enc.begin(), enc.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(sp::Certificate::decode(bad).has_value()) << cut;
  }
}

TEST(CertificateRequest, ProofOfPossession) {
  auto keys = make_keys("alice");
  auto csr = sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", keys, enc_key_for("alice"));
  EXPECT_TRUE(csr.verify_pop());
  // A CSR claiming a key the requester does not hold fails.
  auto other = make_keys("mallory");
  auto forged = csr;
  forged.subject_key = other.public_key();
  EXPECT_FALSE(forged.verify_pop());
}

TEST(CertificateRequest, EncodeDecodeRoundTrip) {
  auto keys = make_keys("bob");
  auto csr = sp::CertificateRequest::create(sp::user_id_from_name("bob"), "bob", keys, enc_key_for("bob"));
  auto decoded = sp::CertificateRequest::decode(csr.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->verify_pop());
  EXPECT_EQ(decoded->subject_name, "bob");
}

// --- CA + trust store ----------------------------------------------------------

TEST(Authority, IssuesSequentialSerials) {
  auto ca = make_ca();
  auto k1 = make_keys("u1"), k2 = make_keys("u2");
  auto c1 = ca.issue(sp::CertificateRequest::create(sp::user_id_from_name("u1"), "u1", k1, enc_key_for("u1")), 0);
  auto c2 = ca.issue(sp::CertificateRequest::create(sp::user_id_from_name("u2"), "u2", k2, enc_key_for("u2")), 0);
  ASSERT_TRUE(c1 && c2);
  EXPECT_EQ(c1->serial + 1, c2->serial);
  EXPECT_EQ(ca.issued_count(), 2u);
}

TEST(Authority, RejectsBadPop) {
  auto ca = make_ca();
  auto keys = make_keys("u");
  auto csr = sp::CertificateRequest::create(sp::user_id_from_name("u"), "u", keys, enc_key_for("u"));
  csr.subject_name = "someone-else";  // invalidates the self-signature
  EXPECT_FALSE(ca.issue(csr, 0).has_value());
}

TEST(Authority, RefusesIdentityKeyCsr) {
  // Under the identity point as a public key, the signature (R = B, S = 1)
  // satisfies S*B - k*A == R for every message: its proof of possession is
  // free to forge, and so would be every signature the certificate vouched
  // for. The CA must refuse it, canonically encoded (01 00..00) or as the
  // non-canonical y = p + 1 (ee ff..ff 7f).
  auto ca = make_ca();
  auto csr = sp::CertificateRequest::create(sp::user_id_from_name("ghost"), "ghost",
                                            make_keys("ghost"), enc_key_for("ghost"));
  sc::EdPublicKey canonical{};
  canonical[0] = 0x01;
  sc::EdPublicKey non_canonical;
  non_canonical.fill(0xff);
  non_canonical[0] = 0xee;
  non_canonical[31] = 0x7f;
  sc::EdSignature forged{};
  forged[0] = 0x58;  // R = enc(B): y = 4/5 = 0x6666...6658
  for (int i = 1; i < 32; ++i) forged[i] = 0x66;
  forged[32] = 0x01;  // S = 1
  for (const auto& key : {canonical, non_canonical}) {
    csr.subject_key = key;
    csr.pop_signature = forged;
    EXPECT_FALSE(csr.verify_pop());
    EXPECT_FALSE(ca.issue(csr, 0).has_value());
  }
  EXPECT_EQ(ca.issued_count(), 0u);
}

TEST(TrustStore, AcceptsValidCertificate) {
  auto ca = make_ca();
  auto keys = make_keys("alice");
  auto cert =
      ca.issue(sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", keys, enc_key_for("alice")), 10);
  sp::TrustStore store(ca.name(), ca.root_public_key());
  EXPECT_EQ(store.verify(*cert, 100.0), sp::VerifyResult::Ok);
}

TEST(TrustStore, RejectsTamperedSubjectKey) {
  auto ca = make_ca();
  auto keys = make_keys("alice");
  auto cert =
      ca.issue(sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", keys, enc_key_for("alice")), 10);
  auto evil = make_keys("mallory");
  auto tampered = *cert;
  tampered.subject_key = evil.public_key();
  sp::TrustStore store(ca.name(), ca.root_public_key());
  EXPECT_EQ(store.verify(tampered, 100.0), sp::VerifyResult::BadSignature);
}

TEST(TrustStore, RejectsWrongIssuerRoot) {
  auto ca = make_ca("real");
  // Same issuer name, different root key.
  sc::Drbg rogue_seed(su::to_bytes("rogue"));
  sp::CertificateAuthority rogue("real", rogue_seed.generate_array<32>());
  auto keys = make_keys("alice");
  auto cert = rogue.issue(
      sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", keys, enc_key_for("alice")), 10);
  sp::TrustStore store(ca.name(), ca.root_public_key());
  EXPECT_EQ(store.verify(*cert, 100.0), sp::VerifyResult::BadSignature);
}

TEST(TrustStore, RejectsUnknownIssuerName) {
  auto ca = make_ca("ca-a");
  auto keys = make_keys("alice");
  auto cert =
      ca.issue(sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", keys, enc_key_for("alice")), 10);
  sp::TrustStore store("ca-b", ca.root_public_key());
  EXPECT_EQ(store.verify(*cert, 100.0), sp::VerifyResult::UnknownIssuer);
}

TEST(TrustStore, EnforcesValidityWindow) {
  auto ca = make_ca();
  auto keys = make_keys("alice");
  auto cert = ca.issue(
      sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", keys, enc_key_for("alice")), 1000.0);
  sp::TrustStore store(ca.name(), ca.root_public_key());
  EXPECT_EQ(store.verify(*cert, 10.0), sp::VerifyResult::NotYetValid);
  EXPECT_EQ(store.verify(*cert, 1000.0 + su::days(366)), sp::VerifyResult::Expired);
}

TEST(TrustStore, RevocationTakesEffectAfterCrlUpdate) {
  auto ca = make_ca();
  auto keys = make_keys("alice");
  auto cert =
      ca.issue(sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", keys, enc_key_for("alice")), 0);
  sp::TrustStore store(ca.name(), ca.root_public_key());
  EXPECT_EQ(store.verify(*cert, 1.0), sp::VerifyResult::Ok);
  ca.revoke(cert->serial);
  // The device's snapshot is stale until it refreshes over the Internet —
  // the exact limitation §IV points out.
  EXPECT_EQ(store.verify(*cert, 1.0), sp::VerifyResult::Ok);
  store.update_crl(ca.revocation_list());
  EXPECT_EQ(store.verify(*cert, 1.0), sp::VerifyResult::Revoked);
}

// --- Fig 2a bootstrap flow --------------------------------------------------------

TEST(Bootstrap, SignupIssuesWorkingCredentials) {
  sp::BootstrapService svc(su::to_bytes("infra"));
  sc::Drbg device(su::to_bytes("alice-device"));
  auto creds = svc.signup("alice", device, 50.0);
  ASSERT_TRUE(creds.has_value());
  EXPECT_EQ(creds->user_id, sp::user_id_from_name("alice"));
  EXPECT_EQ(creds->certificate.subject_key, creds->signing_keypair.public_key());
  // Credentials verify offline against the shipped trust store, and the
  // certificate binds the account's user id.
  EXPECT_EQ(creds->trust.verify(creds->certificate, 100.0), sp::VerifyResult::Ok);
  EXPECT_EQ(creds->certificate.subject_id, creds->user_id);
}

TEST(Bootstrap, DuplicateAccountRejected) {
  sp::BootstrapService svc(su::to_bytes("infra"));
  sc::Drbg d1(su::to_bytes("d1")), d2(su::to_bytes("d2"));
  ASSERT_TRUE(svc.signup("alice", d1, 0).has_value());
  EXPECT_FALSE(svc.signup("alice", d2, 0).has_value());
  EXPECT_EQ(svc.account_count(), 1u);
}

TEST(Bootstrap, MaliciousIdentifierClaimRejected) {
  // §IV: "a malicious device attempts to provide someone else's unique
  // user-identifier during user sign-up" — the cloud must catch this.
  sp::BootstrapService svc(su::to_bytes("infra"));
  auto mallory_keys = make_keys("mallory");
  auto csr = sp::CertificateRequest::create(sp::user_id_from_name("alice"),  // claims alice
                                            "alice", mallory_keys, enc_key_for("mallory"));
  sp::SignupError err{};
  auto cert = svc.submit_csr("mallory", csr, 0, &err);
  EXPECT_FALSE(cert.has_value());
  EXPECT_EQ(err, sp::SignupError::IdentifierMismatch);
}

TEST(Bootstrap, CsrWithStolenKeyRejected) {
  sp::BootstrapService svc(su::to_bytes("infra"));
  auto alice_keys = make_keys("alice");
  auto csr = sp::CertificateRequest::create(sp::user_id_from_name("alice"), "alice", alice_keys,
                                            enc_key_for("alice"));
  // Mallory replays Alice's CSR body but swaps in her own key without a
  // valid proof-of-possession.
  csr.subject_key = make_keys("mallory").public_key();
  sp::SignupError err{};
  EXPECT_FALSE(svc.submit_csr("alice", csr, 0, &err).has_value());
  EXPECT_EQ(err, sp::SignupError::BadProofOfPossession);
}

TEST(Bootstrap, RevocationPropagatesViaRefresh) {
  sp::BootstrapService svc(su::to_bytes("infra"));
  sc::Drbg device(su::to_bytes("alice-device"));
  auto creds = svc.signup("alice", device, 0);
  ASSERT_TRUE(creds.has_value());
  svc.authority().revoke(creds->certificate.serial);
  EXPECT_EQ(creds->trust.verify(creds->certificate, 1.0), sp::VerifyResult::Ok);  // stale CRL
  svc.refresh_crl(creds->trust);
  EXPECT_EQ(creds->trust.verify(creds->certificate, 1.0), sp::VerifyResult::Revoked);
}

TEST(Bootstrap, ManyUsersGetDistinctCredentials) {
  sp::BootstrapService svc(su::to_bytes("infra"));
  std::set<std::uint64_t> serials;
  std::set<std::string> ids;
  for (int i = 0; i < 20; ++i) {
    sc::Drbg device(su::to_bytes("device-" + std::to_string(i)));
    auto creds = svc.signup("user" + std::to_string(i), device, 0);
    ASSERT_TRUE(creds.has_value());
    serials.insert(creds->certificate.serial);
    ids.insert(creds->user_id.to_string());
  }
  EXPECT_EQ(serials.size(), 20u);
  EXPECT_EQ(ids.size(), 20u);
}
