// Ed25519 signatures (RFC 8032). Origin authentication for every bundle and
// the signature scheme for certificates issued by the AlleyOop CA.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "util/bytes.hpp"

namespace sos::crypto {

constexpr std::size_t kEdSeedSize = 32;
constexpr std::size_t kEdPublicKeySize = 32;
constexpr std::size_t kEdSignatureSize = 64;

using EdSeed = std::array<std::uint8_t, kEdSeedSize>;
using EdPublicKey = std::array<std::uint8_t, kEdPublicKeySize>;
using EdSignature = std::array<std::uint8_t, kEdSignatureSize>;

/// Private key material: the RFC 8032 32-byte seed plus cached expansion.
class Ed25519Keypair {
 public:
  Ed25519Keypair() = default;
  Ed25519Keypair(const Ed25519Keypair&) = default;
  Ed25519Keypair& operator=(const Ed25519Keypair&) = default;
  Ed25519Keypair(Ed25519Keypair&&) = default;
  Ed25519Keypair& operator=(Ed25519Keypair&&) = default;
  ~Ed25519Keypair() {
    util::secure_wipe(seed_);
    util::secure_wipe(scalar_);
    util::secure_wipe(prefix_);
  }

  /// Deterministically derive a keypair from a 32-byte seed.
  static Ed25519Keypair from_seed(const EdSeed& seed);

  const EdPublicKey& public_key() const { return pub_; }
  const EdSeed& seed() const { return seed_; }

  EdSignature sign(util::ByteView msg) const;

 private:
  EdSeed seed_{};
  std::array<std::uint8_t, 32> scalar_{};  // clamped secret scalar
  std::array<std::uint8_t, 32> prefix_{};  // nonce-derivation prefix
  EdPublicKey pub_{};
};

/// Signature check; false on malformed points/scalars as well as bad sigs.
bool ed25519_verify(const EdPublicKey& pub, util::ByteView msg, const EdSignature& sig);

}  // namespace sos::crypto
