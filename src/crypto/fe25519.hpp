// GF(2^255-19) field arithmetic with five 51-bit limbs (64-bit limbs,
// products via unsigned __int128). Shared by X25519 and Ed25519.
//
// Limb bounds. Write u = 2^51 and B(f) for the largest limb of f in units of
// u. An element is *tight* when every limb is at most 2^51 + 2^26 (B <= 1.001).
// fe_add and fe_sub do no carrying (lazy reduction); the multiplications
// carry once and always return tight elements:
//
//   tight outputs      fe_mul, fe_sq, fe_mul121666, fe_neg, fe_invert,
//                      fe_frombytes, fe_from_u64, kFeZero, kFeOne
//   fe_add(a, b)       B = B(a) + B(b)
//   fe_sub(a, b)       requires every limb of b at most the matching limb of
//                      4p (B(b) <= 3.99); B = B(a) + 4
//   fe_mul(a, b)       requires B(a) * B(b) <= 80; fe_sq(a): B(a)^2 <= 80
//   fe_mul121666(a)    requires B(a) <= 16
//   everything else    any limbs below 2^62 (fe_invert and fe_tobytes
//                      reduce to canonical limbs first)
//
// The 80 keeps every column sum below 2^115 and the wrapped top carry times
// 19 below 2^64. Every GeP3 coordinate is tight, and so is an affine Niels
// entry's 2dxy; its y+x is 2.002 and its y-x 5.001. So the call sites stay
// far inside these bounds: no fe_sub subtracts a difference, a mixed
// addition's largest product is (Y1-X1)(y-x) = 5.001 * 5.001 = 25, and the
// largest overall is 5.01 * 7.01 = 35, in the doubling (see ge25519.cpp and
// x25519.cpp). tests/ge25519_test.cpp checks each bound, and the call-site
// chains, against a mod-p reference.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace sos::crypto {

struct Fe {
  std::uint64_t v[5];
};

extern const Fe kFeZero;
extern const Fe kFeOne;

constexpr std::uint64_t kFeMask51 = (std::uint64_t{1} << 51) - 1;

Fe fe_from_u64(std::uint64_t x);
/// Load 32 little-endian bytes (top bit masked off, value may be >= p).
Fe fe_frombytes(const std::uint8_t s[32]);
/// Canonical 32-byte little-endian encoding (fully reduced mod p).
void fe_tobytes(std::uint8_t s[32], const Fe& f);

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

/// a - b + 4p: the bias keeps every limb non-negative for B(b) <= 3.99.
inline Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr std::uint64_t k4P0 = 4 * (kFeMask51 + 1 - 19);
  constexpr std::uint64_t k4P = 4 * kFeMask51;
  Fe r;
  r.v[0] = a.v[0] + k4P0 - b.v[0];
  for (int i = 1; i < 5; ++i) r.v[i] = a.v[i] + k4P - b.v[i];
  return r;
}

namespace detail {
using u128 = unsigned __int128;

// Carries five column sums into a tight element: limb 1 takes the final
// carry out of limb 0, so it may exceed 2^51 by at most 2^13.
inline Fe fe_carry_columns(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  std::uint64_t c;
  r.v[0] = static_cast<std::uint64_t>(t0) & kFeMask51;
  c = static_cast<std::uint64_t>(t0 >> 51);
  t1 += c;
  r.v[1] = static_cast<std::uint64_t>(t1) & kFeMask51;
  c = static_cast<std::uint64_t>(t1 >> 51);
  t2 += c;
  r.v[2] = static_cast<std::uint64_t>(t2) & kFeMask51;
  c = static_cast<std::uint64_t>(t2 >> 51);
  t3 += c;
  r.v[3] = static_cast<std::uint64_t>(t3) & kFeMask51;
  c = static_cast<std::uint64_t>(t3 >> 51);
  t4 += c;
  r.v[4] = static_cast<std::uint64_t>(t4) & kFeMask51;
  c = static_cast<std::uint64_t>(t4 >> 51);
  r.v[0] += 19 * c;
  c = r.v[0] >> 51;
  r.v[0] &= kFeMask51;
  r.v[1] += c;
  return r;
}
}  // namespace detail

inline Fe fe_mul(const Fe& a, const Fe& b) {
  using detail::u128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const std::uint64_t a1_19 = 19 * a1, a2_19 = 19 * a2, a3_19 = 19 * a3, a4_19 = 19 * a4;
  const u128 t0 = (u128)a0 * b0 + (u128)a1_19 * b4 + (u128)a2_19 * b3 + (u128)a3_19 * b2 +
                  (u128)a4_19 * b1;
  const u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2_19 * b4 + (u128)a3_19 * b3 +
                  (u128)a4_19 * b2;
  const u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3_19 * b4 +
                  (u128)a4_19 * b3;
  const u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 +
                  (u128)a4_19 * b4;
  const u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 +
                  (u128)a4 * b0;
  return detail::fe_carry_columns(t0, t1, t2, t3, t4);
}

/// Dedicated squaring: 15 u128 products instead of fe_mul's 25. Doubling
/// chains in the Ed25519 hot path are squaring-dominated, so this matters.
inline Fe fe_sq(const Fe& a) {
  using detail::u128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2;
  const std::uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
  const u128 t0 = (u128)a0 * a0 + (u128)d1 * a4_19 + (u128)d2 * a3_19;
  const u128 t1 = (u128)d0 * a1 + (u128)d2 * a4_19 + (u128)a3 * a3_19;
  const u128 t2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)(2 * a3) * a4_19;
  const u128 t3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19;
  const u128 t4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
  return detail::fe_carry_columns(t0, t1, t2, t3, t4);
}

Fe fe_neg(const Fe& a);
/// a * 121666 (X25519 ladder constant).
Fe fe_mul121666(const Fe& a);
/// Multiplicative inverse (zero maps to zero): constant-time safegcd
/// divsteps (Bernstein-Yang), about a third of the cost of a^(p-2).
Fe fe_invert(const Fe& a);
/// a^((p-5)/8), used in square-root extraction.
Fe fe_pow_p58(const Fe& a);

bool fe_is_zero(const Fe& a);
/// Least significant bit of the canonical encoding ("sign" of x in Ed25519).
int fe_is_negative(const Fe& a);
bool fe_equal(const Fe& a, const Fe& b);

/// Constant-time conditional swap (swap iff bit == 1).
inline void fe_cswap(Fe& a, Fe& b, std::uint64_t bit) {
  const std::uint64_t mask = 0 - bit;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

/// sqrt(-1) mod p, computed once at startup.
const Fe& fe_sqrt_m1();
/// Edwards curve constant d = -121665/121666 mod p.
const Fe& fe_edwards_d();
/// 2*d.
const Fe& fe_edwards_2d();

}  // namespace sos::crypto
