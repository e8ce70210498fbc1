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

/// Signature check; false on malformed points/scalars as well as bad sigs,
/// and under every non-canonical or small-order public key (RFC 8032
/// §5.1.3; a small-order key's signatures are forgeable by anyone).
/// Cofactorless: accepts exactly when enc(S*B - k*A) == R.
bool ed25519_verify(const EdPublicKey& pub, util::ByteView msg, const EdSignature& sig);

/// ed25519_verify prepares each public key once (decoded, checked, and
/// expanded into the split-Straus tables of ge25519.hpp, about 4 KB) and
/// keeps it in a process-wide cache of this many direct-mapped slots: a
/// fleet's few hundred keys stay warm, and a key that lands on an occupied
/// slot replaces its entry, so a long sweep never pins stale keys.
constexpr std::size_t kEdPreparedKeySlots = 1024;

/// The prepared-key cache slot of `pub`.
inline std::size_t ed25519_prepared_slot(const EdPublicKey& pub) {
  return (pub[0] | std::size_t{pub[1]} << 8) % kEdPreparedKeySlots;
}

}  // namespace sos::crypto
