// Ed25519 group operations (twisted Edwards curve, a = -1) tuned for the
// middleware's hot paths. Fixed-base scalar multiplication uses a
// precomputed radix-16 per-window table (64 table additions, zero
// doublings); verification uses a Straus/Shamir interleaved double-scalar
// multiplication over signed sliding-window (wNAF) digits, so s*B - k*A
// shares a single doubling chain. All scalar multiplications
// here are variable-time: this reproduction runs simulations, not
// production endpoints (see README).
#pragma once

#include <cstdint>

#include "crypto/fe25519.hpp"
#include "crypto/sc25519.hpp"

namespace sos::crypto {

/// Extended twisted-Edwards coordinates: x = X/Z, y = Y/Z, T = XY/Z.
struct GeP3 {
  Fe X, Y, Z, T;
};

/// Addition-ready form of a point: (Y+X, Y-X, Z, 2dT).
struct GeCached {
  Fe YplusX, YminusX, Z, T2d;
};

GeP3 ge_identity();
GeP3 ge_neg(const GeP3& p);
GeCached ge_to_cached(const GeP3& p);

GeP3 ge_add(const GeP3& p, const GeCached& q);
GeP3 ge_sub(const GeP3& p, const GeCached& q);
GeP3 ge_double(const GeP3& p);

/// Canonical encoding (y with the sign of x in the top bit).
void ge_tobytes(std::uint8_t s[32], const GeP3& p);
/// Decode; false for encodings that name no curve point.
bool ge_frombytes(GeP3& out, const std::uint8_t s[32]);

/// The standard base point B (y = 4/5, x positive).
const GeP3& ge_base();

/// scalar * B via the precomputed per-window table (no doublings).
GeP3 ge_scalarmult_base(const std::uint8_t scalar[32]);

/// s * B + k * A in one interleaved doubling chain (Straus/Shamir). The
/// base-point digits use a wider window over a precomputed odd-multiple
/// table of B.
GeP3 ge_double_scalarmult_base_vartime(const std::uint8_t s[32], const GeP3& a,
                                       const std::uint8_t k[32]);

/// Reference double-and-add ladder; slow, kept as the cross-check oracle
/// for the table and Shamir paths.
GeP3 ge_scalarmult_generic(const GeP3& p, const std::uint8_t scalar[32]);

}  // namespace sos::crypto
