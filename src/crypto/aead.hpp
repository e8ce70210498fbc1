// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8). This is the session cipher for
// every SOS D2D connection after the X25519 handshake.
#pragma once

#include <optional>

#include "crypto/chacha20.hpp"
#include "util/bytes.hpp"

namespace sos::crypto {

constexpr std::size_t kAeadKeySize = 32;
constexpr std::size_t kAeadNonceSize = 12;
constexpr std::size_t kAeadTagSize = 16;

/// ciphertext || 16-byte tag.
util::Bytes aead_seal(const std::uint8_t key[kAeadKeySize],
                      const std::uint8_t nonce[kAeadNonceSize], util::ByteView aad,
                      util::ByteView plaintext);

/// Seals buf[from..] in place (from <= buf.size()) and appends the tag, so a
/// caller that builds its plaintext behind a header, with kAeadTagSize bytes
/// of capacity to spare, pays no further allocation.
void aead_seal_in_place(const std::uint8_t key[kAeadKeySize],
                        const std::uint8_t nonce[kAeadNonceSize], util::ByteView aad,
                        util::Bytes& buf, std::size_t from);

/// Verifies the tag (constant-time compare); nullopt on any mismatch.
std::optional<util::Bytes> aead_open(const std::uint8_t key[kAeadKeySize],
                                     const std::uint8_t nonce[kAeadNonceSize],
                                     util::ByteView aad, util::ByteView sealed);

/// Opens buf[from..] (ciphertext || tag) in place: on success the plaintext
/// replaces the ciphertext and the tag is dropped; on failure (short input
/// or tag mismatch) buf is left untouched and false is returned.
bool aead_open_in_place(const std::uint8_t key[kAeadKeySize],
                        const std::uint8_t nonce[kAeadNonceSize], util::ByteView aad,
                        util::Bytes& buf, std::size_t from);

}  // namespace sos::crypto
