#include "crypto/ge25519.hpp"

#include <algorithm>
#include <array>

namespace sos::crypto {

namespace {

// One extra digit above bit 255 so borrow-carries from the top window of a
// full 256-bit scalar land somewhere instead of being dropped.
constexpr int kSlideDigits = 257;

// Signed sliding-window recoding: digits are odd, |digit| <= max_digit,
// and consecutive non-zero digits are at least `span` bits apart. r must
// hold kSlideDigits entries.
void slide(signed char* r, const std::uint8_t a[32], int max_digit, int span) {
  for (int i = 0; i < 256; ++i) r[i] = 1 & (a[i >> 3] >> (i & 7));
  r[256] = 0;
  for (int i = 0; i < 256; ++i) {
    if (!r[i]) continue;
    for (int b = 1; b <= span && i + b < 256; ++b) {
      if (!r[i + b]) continue;
      if (r[i] + (r[i + b] << b) <= max_digit) {
        r[i] = static_cast<signed char>(r[i] + (r[i + b] << b));
        r[i + b] = 0;
      } else if (r[i] - (r[i + b] << b) >= -max_digit) {
        r[i] = static_cast<signed char>(r[i] - (r[i + b] << b));
        for (int k = i + b; k < kSlideDigits; ++k) {
          if (!r[k]) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
}

int top_nonzero(const signed char* r) {
  for (int i = kSlideDigits - 1; i >= 0; --i)
    if (r[i]) return i;
  return -1;
}

// Odd multiples P, 3P, 5P, ..., (2n-1)P in cached form.
template <std::size_t N>
std::array<GeCached, N> odd_multiples(const GeP3& p) {
  std::array<GeCached, N> out;
  out[0] = ge_to_cached(p);
  GeCached p2 = ge_to_cached(ge_double(p));
  GeP3 cur = p;
  for (std::size_t i = 1; i < N; ++i) {
    cur = ge_add(cur, p2);
    out[i] = ge_to_cached(cur);
  }
  return out;
}

// Fixed-base table: for each 4-bit window i of the scalar, the multiples
// d * 16^i * B for d = 1..15. Built once at startup; scalarmult_base is
// then 64 cached additions with no doublings at all.
struct BaseTable {
  GeCached win[64][15];
};

const BaseTable& base_table() {
  static const BaseTable table = [] {
    BaseTable t;
    GeP3 p = ge_base();  // 16^i * B
    for (int i = 0; i < 64; ++i) {
      GeCached pc = ge_to_cached(p);
      GeP3 acc = p;
      t.win[i][0] = pc;
      for (int d = 2; d <= 15; ++d) {
        acc = ge_add(acc, pc);
        t.win[i][d - 1] = ge_to_cached(acc);
      }
      for (int k = 0; k < 4; ++k) p = ge_double(p);
    }
    return t;
  }();
  return table;
}

// Odd multiples of B up to 63B for the wide-window base half of the
// Straus/Shamir verification pass.
const std::array<GeCached, 32>& base_odd_multiples() {
  static const std::array<GeCached, 32> table = odd_multiples<32>(ge_base());
  return table;
}

}  // namespace

GeP3 ge_identity() {
  return GeP3{kFeZero, kFeOne, kFeOne, kFeZero};
}

GeP3 ge_neg(const GeP3& p) {
  return GeP3{fe_neg(p.X), p.Y, p.Z, fe_neg(p.T)};
}

GeCached ge_to_cached(const GeP3& p) {
  return GeCached{fe_add(p.Y, p.X), fe_sub(p.Y, p.X), p.Z, fe_mul(p.T, fe_edwards_2d())};
}

// Unified addition (add-2008-hwcd-3 for a = -1) with a cached addend.
GeP3 ge_add(const GeP3& p, const GeCached& q) {
  Fe a = fe_mul(fe_add(p.Y, p.X), q.YplusX);
  Fe b = fe_mul(fe_sub(p.Y, p.X), q.YminusX);
  Fe c = fe_mul(q.T2d, p.T);
  Fe zz = fe_mul(p.Z, q.Z);
  Fe d = fe_add(zz, zz);
  Fe e = fe_sub(a, b);
  Fe f = fe_sub(d, c);
  Fe g = fe_add(d, c);
  Fe h = fe_add(a, b);
  return GeP3{fe_mul(e, f), fe_mul(h, g), fe_mul(g, f), fe_mul(e, h)};
}

GeP3 ge_sub(const GeP3& p, const GeCached& q) {
  Fe a = fe_mul(fe_add(p.Y, p.X), q.YminusX);
  Fe b = fe_mul(fe_sub(p.Y, p.X), q.YplusX);
  Fe c = fe_mul(q.T2d, p.T);
  Fe zz = fe_mul(p.Z, q.Z);
  Fe d = fe_add(zz, zz);
  Fe e = fe_sub(a, b);
  Fe f = fe_add(d, c);
  Fe g = fe_sub(d, c);
  Fe h = fe_add(a, b);
  return GeP3{fe_mul(e, f), fe_mul(h, g), fe_mul(g, f), fe_mul(e, h)};
}

// Doubling (dbl-2008-hwcd). The sums are ordered so no fe_sub subtracts a
// lazy difference (fe25519.hpp bounds): 2XY = (X+Y)^2 - (YY+XX) and
// t = (2ZZ + XX) - YY.
GeP3 ge_double(const GeP3& p) {
  Fe xx = fe_sq(p.X);
  Fe yy = fe_sq(p.Y);
  Fe zz = fe_sq(p.Z);
  Fe zz2 = fe_add(zz, zz);
  Fe yy_plus_xx = fe_add(yy, xx);
  Fe xy2 = fe_sub(fe_sq(fe_add(p.X, p.Y)), yy_plus_xx);
  Fe yy_minus_xx = fe_sub(yy, xx);
  Fe t = fe_sub(fe_add(zz2, xx), yy);
  return GeP3{fe_mul(xy2, t), fe_mul(yy_plus_xx, yy_minus_xx), fe_mul(yy_minus_xx, t),
              fe_mul(xy2, yy_plus_xx)};
}

void ge_tobytes(std::uint8_t s[32], const GeP3& p) {
  Fe zinv = fe_invert(p.Z);
  Fe x = fe_mul(p.X, zinv);
  Fe y = fe_mul(p.Y, zinv);
  fe_tobytes(s, y);
  s[31] ^= static_cast<std::uint8_t>(fe_is_negative(x) << 7);
}

bool ge_frombytes(GeP3& out, const std::uint8_t s[32]) {
  Fe y = fe_frombytes(s);
  int sign = s[31] >> 7;

  Fe yy = fe_sq(y);
  Fe u = fe_sub(yy, kFeOne);                          // y^2 - 1
  Fe v = fe_add(fe_mul(yy, fe_edwards_d()), kFeOne);  // d y^2 + 1

  // x = u v^3 (u v^7)^((p-5)/8)
  Fe v3 = fe_mul(fe_sq(v), v);
  Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow_p58(fe_mul(u, v7)));

  Fe vxx = fe_mul(v, fe_sq(x));
  if (!fe_equal(vxx, u)) {
    if (!fe_equal(vxx, fe_neg(u))) return false;
    x = fe_mul(x, fe_sqrt_m1());
  }
  if (fe_is_zero(x) && sign == 1) return false;
  if (fe_is_negative(x) != sign) x = fe_neg(x);

  out.X = x;
  out.Y = y;
  out.Z = kFeOne;
  out.T = fe_mul(x, y);
  return true;
}

const GeP3& ge_base() {
  static const GeP3 base = [] {
    // y = 4/5 mod p, sign(x) = 0.
    Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
    std::uint8_t enc[32];
    fe_tobytes(enc, y);  // sign bit already 0
    GeP3 b{};
    bool ok = ge_frombytes(b, enc);
    (void)ok;
    return b;
  }();
  return base;
}

GeP3 ge_scalarmult_base(const std::uint8_t scalar[32]) {
  const BaseTable& table = base_table();
  GeP3 r = ge_identity();
  for (int i = 0; i < 64; ++i) {
    int digit = (scalar[i / 2] >> (4 * (i & 1))) & 0x0f;
    if (digit) r = ge_add(r, table.win[i][digit - 1]);
  }
  return r;
}

GeP3 ge_double_scalarmult_base_vartime(const std::uint8_t s[32], const GeP3& a,
                                       const std::uint8_t k[32]) {
  signed char sdig[kSlideDigits], kdig[kSlideDigits];
  slide(sdig, s, 63, 8);  // wide window: the B table is precomputed
  slide(kdig, k, 15, 6);
  const auto& btab = base_odd_multiples();
  auto atab = odd_multiples<8>(a);

  GeP3 r = ge_identity();
  int top = std::max(top_nonzero(sdig), top_nonzero(kdig));
  for (int i = top; i >= 0; --i) {
    r = ge_double(r);
    if (sdig[i] > 0)
      r = ge_add(r, btab[sdig[i] / 2]);
    else if (sdig[i] < 0)
      r = ge_sub(r, btab[-sdig[i] / 2]);
    if (kdig[i] > 0)
      r = ge_add(r, atab[kdig[i] / 2]);
    else if (kdig[i] < 0)
      r = ge_sub(r, atab[-kdig[i] / 2]);
  }
  return r;
}

GeP3 ge_scalarmult_generic(const GeP3& p, const std::uint8_t scalar[32]) {
  GeCached pc = ge_to_cached(p);
  GeP3 r = ge_identity();
  for (int i = 255; i >= 0; --i) {
    r = ge_double(r);
    if ((scalar[i / 8] >> (i % 8)) & 1) r = ge_add(r, pc);
  }
  return r;
}

}  // namespace sos::crypto
