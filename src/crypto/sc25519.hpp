// Arithmetic on Ed25519 scalars mod the group order
// L = 2^252 + 27742317777372353535851937790883648493.
// 64-bit-limb bignum with a fold-based reduction (a few 260x125-bit
// multiplies instead of bit-by-bit division), so scalar work stays a small
// fraction of a signature operation.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace sos::crypto {

using Scalar = std::array<std::uint8_t, 32>;  // little-endian, < L when reduced

/// Reduce a 64-byte little-endian value mod L.
Scalar sc_reduce64(const std::uint8_t in[64]);

/// Reduce a 32-byte little-endian value mod L.
Scalar sc_reduce32(const Scalar& in);

/// (a * b + c) mod L.
Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c);

/// (a * b) mod L.
Scalar sc_mul(const Scalar& a, const Scalar& b);

/// (a + b) mod L (inputs must be reduced).
Scalar sc_add(const Scalar& a, const Scalar& b);

/// True iff the encoding is canonical (< L).
bool sc_is_canonical(const Scalar& s);

}  // namespace sos::crypto
