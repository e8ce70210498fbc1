// Ed25519 group operations (twisted Edwards curve, a = -1) tuned for the
// middleware's hot paths, after ref10 and Bernstein et al., "High-speed
// high-security signatures" (CHES 2011). Every precomputed point is stored
// affine in Niels form (y+x, y-x, 2dxy), so adding one is a mixed addition.
// Fixed-base scalar multiplication reads a table of d * 64^i * B in signed
// radix 64: at most 43 mixed additions and no doublings. Verification
// splits s and k into four 64-bit chunks and runs one Straus pass over
// their wNAF digits against odd-multiple tables of 2^(64j) B (static) and
// 2^(64j) A (prepared once per key), so s*B - k*A takes 63 doublings for
// reduced scalars. All scalar multiplications here are variable-time: this
// reproduction runs simulations, not production endpoints (see README).
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

/// Affine Niels form of a point (Z = 1): (y+x, y-x, 2dxy).
struct GePrecomp {
  Fe yplusx, yminusx, xy2d;
};

/// A point prepared as the variable base of the split Straus pass: the odd
/// multiples (1, 3, ..., 15) * 2^(64j) * A for j = 0..3, affine (3.75 KB).
struct GeSplitTable {
  GePrecomp odd[4][8];
};

GeP3 ge_identity();
GeCached ge_to_cached(const GeP3& p);

GeP3 ge_add(const GeP3& p, const GeCached& q);
GeP3 ge_double(const GeP3& p);

/// Canonical encoding (y with the sign of x in the top bit).
void ge_tobytes(std::uint8_t s[32], const GeP3& p);
/// Decode; false for encodings that name no curve point and for
/// non-canonical ones (y >= p, RFC 8032 §5.1.3).
bool ge_frombytes(GeP3& out, const std::uint8_t s[32]);

/// True iff [8]p is the identity (p lies in the torsion subgroup).
bool ge_is_small_order(const GeP3& p);

/// The standard base point B (y = 4/5, x positive).
const GeP3& ge_base();

/// scalar * B for any 256-bit scalar via the signed radix-64 table.
GeP3 ge_scalarmult_base(const std::uint8_t scalar[32]);

/// The split tables of a (64 * 3 doublings, 28 additions, one inversion).
GeSplitTable ge_split_table(const GeP3& a);

/// s * B - k * A for any 256-bit s and k, in one Straus pass over the
/// 64-bit chunks of both scalars: 63 doublings for scalars below 2^255
/// (every reduced one), a few more for the carries of larger ones.
GeP3 ge_double_scalarmult_vartime(const std::uint8_t s[32], const GeSplitTable& a,
                                  const std::uint8_t k[32]);

/// Reference double-and-add ladder; slow, kept as the cross-check oracle
/// for the table and Straus paths.
GeP3 ge_scalarmult_generic(const GeP3& p, const std::uint8_t scalar[32]);

}  // namespace sos::crypto
