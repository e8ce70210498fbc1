#include "crypto/fe25519.hpp"

#include <cstring>

namespace sos::crypto {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {
// One carry pass: any limbs below 2^63 come out tight (see fe25519.hpp).
void carry_pass(u64 t[5]) {
  u64 c;
  c = t[0] >> 51;
  t[0] &= kFeMask51;
  t[1] += c;
  c = t[1] >> 51;
  t[1] &= kFeMask51;
  t[2] += c;
  c = t[2] >> 51;
  t[2] &= kFeMask51;
  t[3] += c;
  c = t[3] >> 51;
  t[3] &= kFeMask51;
  t[4] += c;
  c = t[4] >> 51;
  t[4] &= kFeMask51;
  t[0] += 19 * c;
}
}  // namespace

const Fe kFeZero = {{0, 0, 0, 0, 0}};
const Fe kFeOne = {{1, 0, 0, 0, 0}};

Fe fe_from_u64(u64 x) {
  Fe f = {{x & kFeMask51, (x >> 51), 0, 0, 0}};
  return f;
}

Fe fe_frombytes(const std::uint8_t s[32]) {
  Fe f;
  f.v[0] = util::load64_le(s) & kFeMask51;
  f.v[1] = (util::load64_le(s + 6) >> 3) & kFeMask51;
  f.v[2] = (util::load64_le(s + 12) >> 6) & kFeMask51;
  f.v[3] = (util::load64_le(s + 19) >> 1) & kFeMask51;
  f.v[4] = (util::load64_le(s + 24) >> 12) & kFeMask51;
  return f;
}

void fe_tobytes(std::uint8_t s[32], const Fe& f) {
  u64 t[5];
  std::memcpy(t, f.v, sizeof(t));
  for (int pass = 0; pass < 4; ++pass) carry_pass(t);
  // Now 0 <= value < 2^255. Subtract p if value >= p, i.e. if value+19 has
  // bit 255 set.
  u64 q[5];
  std::memcpy(q, t, sizeof(q));
  q[0] += 19;
  for (int i = 0; i < 4; ++i) {
    q[i + 1] += q[i] >> 51;
    q[i] &= kFeMask51;
  }
  u64 carry = q[4] >> 51;
  if (carry) {
    q[4] &= kFeMask51;
    std::memcpy(t, q, sizeof(q));
  }
  // Serialize 5x51-bit limbs into 32 bytes LE.
  std::uint8_t out[32] = {0};
  u128 acc = 0;
  int bits = 0;
  int idx = 0;
  for (int limb = 0; limb < 5; ++limb) {
    acc |= (u128)t[limb] << bits;
    bits += 51;
    while (bits >= 8 && idx < 32) {
      out[idx++] = (std::uint8_t)acc;
      acc >>= 8;
      bits -= 8;
    }
  }
  while (idx < 32) {
    out[idx++] = (std::uint8_t)acc;
    acc >>= 8;
  }
  std::memcpy(s, out, 32);
}

Fe fe_neg(const Fe& a) {
  // Tighten a first so 2p covers every limb, then tighten the difference.
  Fe t = a;
  carry_pass(t.v);
  Fe r;
  r.v[0] = 2 * (kFeMask51 + 1 - 19) - t.v[0];
  for (int i = 1; i < 5; ++i) r.v[i] = 2 * kFeMask51 - t.v[i];
  carry_pass(r.v);
  return r;
}

Fe fe_mul121666(const Fe& a) {
  u128 t[5];
  for (int i = 0; i < 5; ++i) t[i] = (u128)a.v[i] * 121666;
  Fe r;
  u64 c;
  r.v[0] = (u64)t[0] & kFeMask51;
  c = (u64)(t[0] >> 51);
  t[1] += c;
  r.v[1] = (u64)t[1] & kFeMask51;
  c = (u64)(t[1] >> 51);
  t[2] += c;
  r.v[2] = (u64)t[2] & kFeMask51;
  c = (u64)(t[2] >> 51);
  t[3] += c;
  r.v[3] = (u64)t[3] & kFeMask51;
  c = (u64)(t[3] >> 51);
  t[4] += c;
  r.v[4] = (u64)t[4] & kFeMask51;
  c = (u64)(t[4] >> 51);
  r.v[0] += 19 * c;
  return r;
}

namespace {
// Square-and-multiply with a big-endian exponent; exponent is public
// (p-2 or (p-5)/8), so variable-time scanning is fine.
Fe fe_pow(const Fe& base, const std::uint8_t* exp_be, std::size_t len) {
  Fe result = kFeOne;
  bool started = false;
  for (std::size_t i = 0; i < len; ++i) {
    for (int bit = 7; bit >= 0; --bit) {
      if (started) result = fe_sq(result);
      if ((exp_be[i] >> bit) & 1) {
        if (started)
          result = fe_mul(result, base);
        else {
          result = base;
          started = true;
        }
      } else if (!started) {
        continue;
      }
    }
  }
  return result;
}

// (p - 1) / 4 = 2^253 - 5, big-endian (for sqrt(-1) = 2^((p-1)/4)).
const std::uint8_t kPm1Q[32] = {
    0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xfb};

Fe fe_sq_times(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// Shared prefix of the inversion / sqrt addition chains: a^(2^250 - 1).
// The exponents p-2 and (p-5)/8 are runs of ones, so the classic chain
// (254 squarings + 11 multiplies) replaces fe_pow's multiply-per-set-bit
// scan -- inversion drops from ~500 to ~265 field operations.
Fe fe_pow_2e250m1(const Fe& z) {
  Fe z2 = fe_sq(z);                          // z^2
  Fe z9 = fe_mul(fe_sq_times(z2, 2), z);     // z^9
  Fe z11 = fe_mul(z9, z2);                   // z^11
  Fe z_5_0 = fe_mul(fe_sq(z11), z9);         // z^(2^5 - 1)
  Fe z_10_0 = fe_mul(fe_sq_times(z_5_0, 5), z_5_0);       // z^(2^10 - 1)
  Fe z_20_0 = fe_mul(fe_sq_times(z_10_0, 10), z_10_0);    // z^(2^20 - 1)
  Fe z_40_0 = fe_mul(fe_sq_times(z_20_0, 20), z_20_0);    // z^(2^40 - 1)
  Fe z_50_0 = fe_mul(fe_sq_times(z_40_0, 10), z_10_0);    // z^(2^50 - 1)
  Fe z_100_0 = fe_mul(fe_sq_times(z_50_0, 50), z_50_0);   // z^(2^100 - 1)
  Fe z_200_0 = fe_mul(fe_sq_times(z_100_0, 100), z_100_0);  // z^(2^200 - 1)
  return fe_mul(fe_sq_times(z_200_0, 50), z_50_0);        // z^(2^250 - 1)
}
}  // namespace

Fe fe_invert(const Fe& a) {
  // a^(p-2) = a^(2^255 - 21) = (a^(2^250 - 1))^(2^5) * a^11.
  Fe z11 = fe_mul(fe_mul(fe_sq_times(fe_sq(a), 2), a), fe_sq(a));
  return fe_mul(fe_sq_times(fe_pow_2e250m1(a), 5), z11);
}

Fe fe_pow_p58(const Fe& a) {
  // a^((p-5)/8) = a^(2^252 - 3) = (a^(2^250 - 1))^(2^2) * a.
  return fe_mul(fe_sq_times(fe_pow_2e250m1(a), 2), a);
}

bool fe_is_zero(const Fe& a) {
  std::uint8_t s[32];
  fe_tobytes(s, a);
  std::uint8_t acc = 0;
  for (auto b : s) acc |= b;
  return acc == 0;
}

int fe_is_negative(const Fe& a) {
  std::uint8_t s[32];
  fe_tobytes(s, a);
  return s[0] & 1;
}

bool fe_equal(const Fe& a, const Fe& b) {
  std::uint8_t sa[32], sb[32];
  fe_tobytes(sa, a);
  fe_tobytes(sb, b);
  // sos-lint: allow(memcmp-public) every fe_equal caller compares public
  // curve coordinates during verification; no secret scalar reaches here.
  return std::memcmp(sa, sb, 32) == 0;
}

const Fe& fe_sqrt_m1() {
  static const Fe value = fe_pow(fe_from_u64(2), kPm1Q, 32);
  return value;
}

const Fe& fe_edwards_d() {
  // d = -121665/121666 mod p
  static const Fe value = fe_mul(fe_neg(fe_from_u64(121665)), fe_invert(fe_from_u64(121666)));
  return value;
}

const Fe& fe_edwards_2d() {
  static const Fe value = fe_add(fe_edwards_d(), fe_edwards_d());
  return value;
}

}  // namespace sos::crypto
