#include "crypto/sc25519.hpp"

#include <cstring>

namespace sos::crypto {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// L in 64-bit little-endian limbs.
constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0x0000000000000000ULL,
                       0x1000000000000000ULL};

struct U512 {
  u64 w[8] = {0};
};

struct U256 {
  u64 w[4] = {0};
};

U512 load512(const std::uint8_t in[64]) {
  U512 x;
  for (int i = 0; i < 8; ++i) x.w[i] = sos::util::load64_le(in + 8 * i);
  return x;
}

// r >= L ?
bool geq_l(const U256& r) {
  for (int i = 3; i >= 0; --i) {
    if (r.w[i] > kL[i]) return true;
    if (r.w[i] < kL[i]) return false;
  }
  return true;  // equal
}

void sub_l(U256& r) {
  u128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 d = (u128)r.w[i] - kL[i] - borrow;
    r.w[i] = (u64)d;
    borrow = (d >> 64) & 1;  // 1 if borrowed
  }
}

// m = L - 2^252 (125 bits), little-endian limbs.
constexpr u64 kM[2] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL};

int bitlen(const u64* w, int n) {
  for (int i = n - 1; i >= 0; --i)
    if (w[i]) return 64 * i + (64 - __builtin_clzll(w[i]));
  return 0;
}

// Fold-based reduction: x mod L. Each pass rewrites x = q*2^252 + r as
// r + (L << k) - q*m (always non-negative by choice of k), stripping ~124
// bits per pass; 3-4 passes replace the seed's 512-step binary division.
U256 mod_l(const U512& x) {
  u64 w[9] = {0};
  for (int i = 0; i < 8; ++i) w[i] = x.w[i];

  while (bitlen(w, 9) > 256) {
    // q = w >> 252 (at most 260 bits), r = w mod 2^252.
    u64 q[5];
    for (int i = 0; i < 5; ++i) q[i] = (w[3 + i] >> 60) | (w[4 + i] << 4);
    u64 r[4] = {w[0], w[1], w[2], w[3] & 0x0FFFFFFFFFFFFFFFULL};

    // t = q * m  (<= 7 limbs since q < 2^260, m < 2^125).
    u64 t[7] = {0};
    for (int i = 0; i < 5; ++i) {
      u128 carry = 0;
      for (int j = 0; j < 2; ++j) {
        u128 cur = (u128)q[i] * kM[j] + t[i + j] + carry;
        t[i + j] = (u64)cur;
        carry = cur >> 64;
      }
      t[i + 2] += (u64)carry;
    }

    // kl = L << k with k chosen so kl > t: bitlen(t) <= bitlen(q)+126 and
    // bitlen(L << k) = 253 + k.
    int k = bitlen(q, 5) - 125;
    if (k < 0) k = 0;
    u64 kl[9] = {0};
    int limb = k / 64, shift = k % 64;
    for (int i = 0; i < 4; ++i) {
      kl[i + limb] |= shift ? (kL[i] << shift) : kL[i];
      if (shift && i + limb + 1 < 9) kl[i + limb + 1] |= kL[i] >> (64 - shift);
    }

    // w = r + kl - t (non-negative; < 2^389, fits the 9-limb buffer).
    __int128 acc = 0;
    for (int i = 0; i < 9; ++i) {
      acc += kl[i];
      if (i < 4) acc += r[i];
      if (i < 7) acc -= t[i];
      w[i] = (u64)acc;
      acc >>= 64;  // arithmetic shift propagates the borrow
    }
  }

  U256 out{{w[0], w[1], w[2], w[3]}};
  while (geq_l(out)) sub_l(out);
  return out;
}

Scalar store256(const U256& r) {
  Scalar out;
  for (int i = 0; i < 4; ++i) sos::util::store64_le(out.data() + 8 * i, r.w[i]);
  return out;
}

// 2x2-limb schoolbook product into out[0..3] (exact, no truncation).
void mul128(const u64 a[2], const u64 b[2], u64 out[4]) {
  u128 t0 = (u128)a[0] * b[0];
  u128 t1 = (u128)a[0] * b[1];
  u128 t2 = (u128)a[1] * b[0];
  u128 t3 = (u128)a[1] * b[1];
  out[0] = (u64)t0;
  u128 mid = (t0 >> 64) + (u64)t1 + (u64)t2;
  out[1] = (u64)mid;
  u128 hi = (mid >> 64) + (t1 >> 64) + (t2 >> 64) + (u64)t3;
  out[2] = (u64)hi;
  out[3] = (u64)((hi >> 64) + (t3 >> 64));
}

// Karatsuba 256x256 -> 512: three 128x128 products instead of the
// schoolbook's four (12 vs 16 64x64 multiplies). With a = a1*2^128 + a0:
//   a*b = z0 + ((a0+a1)(b0+b1) - z0 - z2) * 2^128 + z2 * 2^256
// The half-sums can carry into bit 128; the carries contribute the exact
// cross terms ca*sb_lo, cb*sa_lo and ca*cb*2^256 handled below.
U512 mul256(const Scalar& a, const Scalar& b) {
  u64 aw[4], bw[4];
  for (int i = 0; i < 4; ++i) {
    aw[i] = sos::util::load64_le(a.data() + 8 * i);
    bw[i] = sos::util::load64_le(b.data() + 8 * i);
  }
  u64 z0[4], z2[4], z1[4];
  mul128(aw, bw, z0);          // a0 * b0
  mul128(aw + 2, bw + 2, z2);  // a1 * b1

  // sa = a0 + a1 (129 bits: sa_lo + ca*2^128), sb likewise.
  u64 sa[2], sb[2];
  u128 c = (u128)aw[0] + aw[2];
  sa[0] = (u64)c;
  c = (c >> 64) + aw[1] + aw[3];
  sa[1] = (u64)c;
  u64 ca = (u64)(c >> 64);
  c = (u128)bw[0] + bw[2];
  sb[0] = (u64)c;
  c = (c >> 64) + bw[1] + bw[3];
  sb[1] = (u64)c;
  u64 cb = (u64)(c >> 64);
  mul128(sa, sb, z1);  // sa_lo * sb_lo (the carry cross terms join below)

  // mid = z1 + ca*sb_lo + cb*sa_lo + ca*cb*2^128 - z0 - z2, a signed-free
  // accumulation: sum the positive parts into a 5-limb value first.
  u64 mid[5] = {z1[0], z1[1], z1[2], z1[3], 0};
  auto add2_at = [&mid](const u64 x[2], u64 scale, int pos) {
    if (scale == 0) return;
    u128 carry = 0;
    for (int i = 0; i < 2; ++i) {
      u128 cur = (u128)x[i] * scale + mid[pos + i] + carry;
      mid[pos + i] = (u64)cur;
      carry = cur >> 64;
    }
    for (int i = pos + 2; carry != 0 && i < 5; ++i) {
      u128 cur = (u128)mid[i] + (u64)carry;
      mid[i] = (u64)cur;
      carry = cur >> 64;
    }
  };
  add2_at(sb, ca, 2);  // ca * sb_lo * 2^128
  add2_at(sa, cb, 2);  // cb * sa_lo * 2^128
  if (ca && cb) {
    u128 cur = (u128)mid[4] + 1;  // ca*cb * 2^256
    mid[4] = (u64)cur;
  }
  // mid -= z0 + z2 (non-negative by construction).
  __int128 acc = 0;
  for (int i = 0; i < 5; ++i) {
    acc += mid[i];
    if (i < 4) acc -= (u128)z0[i] + z2[i];
    mid[i] = (u64)acc;
    acc >>= 64;  // arithmetic shift propagates the borrow
  }

  // out = z0 + mid*2^128 + z2*2^256, each addition carried to the top.
  U512 out;
  for (int i = 0; i < 4; ++i) out.w[i] = z0[i];
  u128 carry = 0;
  for (int i = 2; i < 8; ++i) {
    u128 cur = (u128)out.w[i] + (i - 2 < 5 ? mid[i - 2] : 0) + carry;
    out.w[i] = (u64)cur;
    carry = cur >> 64;
  }
  carry = 0;
  for (int i = 4; i < 8; ++i) {
    u128 cur = (u128)out.w[i] + z2[i - 4] + carry;
    out.w[i] = (u64)cur;
    carry = cur >> 64;
  }
  return out;
}

void add_into(U512& x, const Scalar& c) {
  u128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    u128 cur = (u128)x.w[i] + (i < 4 ? sos::util::load64_le(c.data() + 8 * i) : 0) + carry;
    x.w[i] = (u64)cur;
    carry = cur >> 64;
  }
}
}  // namespace

Scalar sc_reduce64(const std::uint8_t in[64]) {
  return store256(mod_l(load512(in)));
}

Scalar sc_reduce32(const Scalar& in) {
  std::uint8_t wide[64] = {0};
  std::memcpy(wide, in.data(), 32);
  return sc_reduce64(wide);
}

Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c) {
  U512 prod = mul256(a, b);
  add_into(prod, c);
  return store256(mod_l(prod));
}

Scalar sc_mul(const Scalar& a, const Scalar& b) {
  return store256(mod_l(mul256(a, b)));
}

Scalar sc_add(const Scalar& a, const Scalar& b) {
  U256 r;
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 cur = (u128)sos::util::load64_le(a.data() + 8 * i) +
               sos::util::load64_le(b.data() + 8 * i) + carry;
    r.w[i] = (u64)cur;
    carry = cur >> 64;
  }
  // Inputs < L, so the sum is < 2L < 2^254: no carry out, one subtraction.
  if (geq_l(r)) sub_l(r);
  return store256(r);
}

bool sc_is_canonical(const Scalar& s) {
  U256 r;
  for (int i = 0; i < 4; ++i) r.w[i] = sos::util::load64_le(s.data() + 8 * i);
  return !geq_l(r);
}

}  // namespace sos::crypto
