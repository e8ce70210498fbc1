// X25519 Diffie-Hellman (RFC 7748). Session-key agreement for the SOS
// ad hoc manager's encrypted D2D connections.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace sos::crypto {

constexpr std::size_t kX25519KeySize = 32;

using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// scalar * point (u-coordinate Montgomery ladder).
X25519Key x25519(const X25519Key& scalar, const X25519Key& point);

/// scalar * base point (u = 9). Equal to x25519(scalar, {9}) bit for bit,
/// computed on the Edwards form through the fixed-base table (see
/// ge_scalarmult_base: variable-time, like Ed25519 signing).
X25519Key x25519_base(const X25519Key& scalar);

/// True iff `shared` is all zero, the output for a low-order peer point
/// (RFC 7748 §6.1). Callers must reject such a secret. Constant-time.
bool x25519_is_zero(const X25519Key& shared);

/// Clamp a random 32-byte string into a valid X25519 private scalar.
X25519Key x25519_clamp(X25519Key scalar);

}  // namespace sos::crypto
