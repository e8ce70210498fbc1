#include "bundle/bundle.hpp"

namespace sos::bundle {

void Bundle::sign(const crypto::Ed25519Keypair& origin_keys) {
  signature = origin_keys.sign(signing_bytes());
}

bool Bundle::verify(const crypto::EdPublicKey& origin_key) const {
  return crypto::ed25519_verify(origin_key, signing_bytes(), signature);
}

}  // namespace sos::bundle
