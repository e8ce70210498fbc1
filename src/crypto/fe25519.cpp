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

namespace {
// The fully reduced limbs of f (every limb below 2^51, value below p), for
// any limbs below 2^62.
void canonical_limbs(u64 t[5], const Fe& f) {
  std::memcpy(t, f.v, 5 * sizeof(u64));
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
  const u64 take_q = 0 - (q[4] >> 51);  // branch-free: all ones iff value >= p
  q[4] &= kFeMask51;
  for (int i = 0; i < 5; ++i) t[i] ^= take_q & (t[i] ^ q[i]);
}
}  // namespace

void fe_tobytes(std::uint8_t s[32], const Fe& f) {
  u64 t[5];
  canonical_limbs(t, f);
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
// Square-and-multiply with a big-endian exponent; the one exponent used,
// (p-1)/4, is public, so variable-time scanning is fine.
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

// Prefix of the square-root addition chain: a^(2^250 - 1). The exponent
// (p-5)/8 is a run of ones, so the classic chain (252 squarings + 11
// multiplies) replaces fe_pow's multiply-per-set-bit scan.
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

namespace {
// Inversion by Bernstein-Yang safegcd ("Fast constant-time gcd computation
// and modular inversion", TCHES 2019), laid out as libsecp256k1's
// constant-time modinv64: numbers are five signed 62-bit limbs, and each of
// 10 rounds runs 59 divsteps on the low limbs as a 2x2 transition matrix
// (scaled by 2^62), then applies it to the full-width f, g and to the
// Bezout coefficients d, e mod p. 590 divsteps suffice for every input
// below 2^256. No branch or memory index depends on the input.
using i64 = std::int64_t;
using i128 = __int128;

struct Signed62 {
  i64 v[5];
};
struct Transition {
  i64 u, v, q, r;
};

constexpr u64 kMask62 = ~u64{0} >> 2;
// p = 2^255 - 19 = -19 + 128 * 2^248, the sparse signed-62 form.
constexpr Signed62 kP62 = {{-19, 0, 0, 0, 128}};
// p^-1 mod 2^62, by Newton's iteration (each step doubles the correct bits).
constexpr u64 kPInv62 = [] {
  const u64 p0 = static_cast<u64>(kP62.v[0]);
  u64 x = p0;  // correct to 3 bits: every odd p0 squares to 1 mod 8
  for (int i = 0; i < 5; ++i) x *= 2 - p0 * x;
  return x & kMask62;
}();

// Hides where a mask came from, so the optimizer keeps it a mask instead of
// turning the selects it drives back into branches.
inline u64 value_barrier(u64 x) {
  __asm__("" : "+r"(x));
  return x;
}

// n <= 30 divsteps on the low bits of f and g, starting from zeta =
// -(delta + 1/2); f and g advance in place. The matrix starts as the
// identity and its rows ride packed, (u + 2^32 v) and (q + 2^32 r): n steps
// keep every entry within +-2^n, so the halves never interfere and one
// operation updates two entries.
i64 divsteps_packed(i64 zeta, u64& f, u64& g, Transition& t, int n) {
  u64 uv = 1, qr = u64{1} << 32;
  for (int i = 0; i < n; ++i) {
    u64 mask1 = value_barrier(static_cast<u64>(zeta >> 63));  // all ones iff zeta < 0
    const u64 mask2 = value_barrier(0 - (g & 1));              // all ones iff g is odd
    // Conditionally negated f and (u, v), added to g and (q, r) when g is odd.
    const u64 x = (f ^ mask1) - mask1;
    const u64 y = (uv ^ mask1) - mask1;
    g += x & mask2;
    qr += y & mask2;
    // When zeta < 0 and g was odd, swap in the new g as f: zeta -> -zeta - 2.
    mask1 &= mask2;
    zeta = (zeta ^ static_cast<i64>(mask1)) - 1;
    f += g & mask1;
    uv += qr & mask1;
    g >>= 1;
    uv <<= 1;
  }
  auto lo = [](u64 w) {
    return static_cast<i64>(static_cast<std::int32_t>(static_cast<std::uint32_t>(w)));
  };
  auto hi = [&](u64 w) { return (static_cast<i64>(w) - lo(w)) >> 32; };
  t = {lo(uv), hi(uv), lo(qr), hi(qr)};
  return zeta;
}

// 59 divsteps: packed batches of 30 and 29 on the low limbs of f and g
// (62 valid bits cover both), their matrices multiplied and scaled from 2^59
// to the 2^62 the updates divide by.
i64 divsteps_59(i64 zeta, u64 f, u64 g, Transition& t) {
  Transition a, b;
  zeta = divsteps_packed(zeta, f, g, a, 30);
  zeta = divsteps_packed(zeta, f, g, b, 29);
  t = {8 * (b.u * a.u + b.v * a.q), 8 * (b.u * a.v + b.v * a.r),
       8 * (b.q * a.u + b.r * a.q), 8 * (b.q * a.v + b.r * a.r)};
  return zeta;
}

// (d, e) <- t * (d, e) / 2^62 mod p, keeping both in (-2p, p).
void update_de(Signed62& d, Signed62& e, const Transition& t) {
  // Add p to whichever of d, e is negative, then pick the multiples of p
  // that clear the low 62 bits of the product.
  const i64 sd = d.v[4] >> 63, se = e.v[4] >> 63;
  i64 md = (t.u & sd) + (t.v & se);
  i64 me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d.v[0] + static_cast<i128>(t.v) * e.v[0];
  i128 ce = static_cast<i128>(t.q) * d.v[0] + static_cast<i128>(t.r) * e.v[0];
  md -= static_cast<i64>((kPInv62 * static_cast<u64>(cd) + static_cast<u64>(md)) & kMask62);
  me -= static_cast<i64>((kPInv62 * static_cast<u64>(ce) + static_cast<u64>(me)) & kMask62);
  cd += static_cast<i128>(kP62.v[0]) * md;
  ce += static_cast<i128>(kP62.v[0]) * me;
  cd >>= 62;  // the low 62 bits are zero now
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += static_cast<i128>(t.u) * d.v[i] + static_cast<i128>(t.v) * e.v[i] +
          static_cast<i128>(kP62.v[i]) * md;
    ce += static_cast<i128>(t.q) * d.v[i] + static_cast<i128>(t.r) * e.v[i] +
          static_cast<i128>(kP62.v[i]) * me;
    d.v[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kMask62);
    e.v[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kMask62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<i64>(cd);
  e.v[4] = static_cast<i64>(ce);
}

// (f, g) <- t * (f, g) / 2^62, exactly.
void update_fg(Signed62& f, Signed62& g, const Transition& t) {
  i128 cf = static_cast<i128>(t.u) * f.v[0] + static_cast<i128>(t.v) * g.v[0];
  i128 cg = static_cast<i128>(t.q) * f.v[0] + static_cast<i128>(t.r) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < 5; ++i) {
    cf += static_cast<i128>(t.u) * f.v[i] + static_cast<i128>(t.v) * g.v[i];
    cg += static_cast<i128>(t.q) * f.v[i] + static_cast<i128>(t.r) * g.v[i];
    f.v[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kMask62);
    g.v[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kMask62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[4] = static_cast<i64>(cf);
  g.v[4] = static_cast<i64>(cg);
}

void carry62(Signed62& r) {
  for (int i = 0; i < 4; ++i) {
    r.v[i + 1] += r.v[i] >> 62;
    r.v[i] &= static_cast<i64>(kMask62);
  }
}

// r in (-2p, p) times the sign of f (+-1), brought into [0, p).
void normalize(Signed62& r, i64 f_top) {
  i64 add_p = r.v[4] >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] += kP62.v[i] & add_p;
  const i64 negate = f_top >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] = (r.v[i] ^ negate) - negate;
  carry62(r);
  add_p = r.v[4] >> 63;
  for (int i = 0; i < 5; ++i) r.v[i] += kP62.v[i] & add_p;
  carry62(r);
}
}  // namespace

Fe fe_invert(const Fe& a) {
  u64 t[5];
  canonical_limbs(t, a);
  // Repack 5 x 51 bits as 4 x 62 + 7.
  Signed62 g = {{static_cast<i64>((t[0] | t[1] << 51) & kMask62),
                 static_cast<i64>((t[1] >> 11 | t[2] << 40) & kMask62),
                 static_cast<i64>((t[2] >> 22 | t[3] << 29) & kMask62),
                 static_cast<i64>((t[3] >> 33 | t[4] << 18) & kMask62),
                 static_cast<i64>(t[4] >> 44)}};
  Signed62 d = {{0, 0, 0, 0, 0}}, e = {{1, 0, 0, 0, 0}}, f = kP62;
  i64 zeta = -1;  // delta = 1/2
  for (int round = 0; round < 10; ++round) {
    Transition tr;
    zeta = divsteps_59(zeta, static_cast<u64>(f.v[0]), static_cast<u64>(g.v[0]), tr);
    update_de(d, e, tr);
    update_fg(f, g, tr);
  }
  // g is 0 and f is +-gcd = +-1 (or +-p for a = 0, where d stays 0).
  normalize(d, f.v[4]);
  u64 r[5];
  for (int i = 0; i < 5; ++i) r[i] = static_cast<u64>(d.v[i]);
  return Fe{{r[0] & kFeMask51, (r[0] >> 51 | r[1] << 11) & kFeMask51,
             (r[1] >> 40 | r[2] << 22) & kFeMask51, (r[2] >> 29 | r[3] << 33) & kFeMask51,
             r[3] >> 18 | r[4] << 44}};
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
