#include "pki/certificate.hpp"

namespace sos::pki {

CertificateRequest CertificateRequest::create(const UserId& id, const std::string& name,
                                              const crypto::Ed25519Keypair& keypair,
                                              const crypto::X25519Key& enc_public_key) {
  CertificateRequest req;
  req.subject_id = id;
  req.subject_name = name;
  req.subject_key = keypair.public_key();
  req.subject_enc_key = enc_public_key;
  req.pop_signature = keypair.sign(req.signing_bytes());
  return req;
}

bool CertificateRequest::verify_pop() const {
  return crypto::ed25519_verify(subject_key, signing_bytes(), pop_signature);
}

}  // namespace sos::pki
