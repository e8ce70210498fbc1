#include "crypto/ge25519.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace sos::crypto {

namespace {

// Completed coordinates: x = X/Z, y = Y/T. Additions and doublings end
// here; the products that follow pick the output form, so a doubling that
// feeds another doubling skips T.
struct GeP1P1 {
  Fe X, Y, Z, T;
};

// Projective coordinates (X:Y:Z): enough to double or encode.
struct GeP2 {
  Fe X, Y, Z;
};

GeP3 to_p3(const GeP1P1& p) {
  return GeP3{fe_mul(p.X, p.T), fe_mul(p.Y, p.Z), fe_mul(p.Z, p.T), fe_mul(p.X, p.Y)};
}

GeP2 to_p2(const GeP1P1& p) {
  return GeP2{fe_mul(p.X, p.T), fe_mul(p.Y, p.Z), fe_mul(p.Z, p.T)};
}

// Doubling (dbl-2008-hwcd) of (X:Y:Z). The sums are ordered so no fe_sub
// subtracts a lazy difference (fe25519.hpp bounds): 2XY = (X+Y)^2 -
// (YY+XX) and T = (2ZZ + XX) - YY.
GeP1P1 dbl(const Fe& x, const Fe& y, const Fe& z) {
  const Fe xx = fe_sq(x);
  const Fe yy = fe_sq(y);
  const Fe zz = fe_sq(z);
  const Fe yy_plus_xx = fe_add(yy, xx);
  return GeP1P1{fe_sub(fe_sq(fe_add(x, y)), yy_plus_xx), yy_plus_xx, fe_sub(yy, xx),
                fe_sub(fe_add(fe_add(zz, zz), xx), yy)};
}

// Unified addition (add-2008-hwcd-3 for a = -1) of a point q given as its
// (y+x, y-x) factors, d = 2 * Z1 * Z2 and 2d * T2; subtracting q swaps the
// two factors and the signs of 2d * T1 * T2.
template <bool kSubtract>
GeP1P1 add(const GeP3& p, const Fe& yplusx, const Fe& yminusx, const Fe& d, const Fe& t2d) {
  const Fe a = fe_mul(fe_add(p.Y, p.X), kSubtract ? yminusx : yplusx);
  const Fe b = fe_mul(fe_sub(p.Y, p.X), kSubtract ? yplusx : yminusx);
  const Fe c = fe_mul(t2d, p.T);
  const Fe d_plus_c = fe_add(d, c);
  const Fe d_minus_c = fe_sub(d, c);
  return GeP1P1{fe_sub(a, b), fe_add(a, b), kSubtract ? d_minus_c : d_plus_c,
                kSubtract ? d_plus_c : d_minus_c};
}

// p + q, or p - q when `negative`; q is affine, so d = 2 * Z1.
GeP1P1 madd(const GeP3& p, const GePrecomp& q, bool negative) {
  const Fe d = fe_add(p.Z, p.Z);
  return negative ? add<true>(p, q.yplusx, q.yminusx, d, q.xy2d)
                  : add<false>(p, q.yplusx, q.yminusx, d, q.xy2d);
}

// 2^n * p for n >= 1, the intermediate doublings skipping T.
GeP3 double_times(const GeP3& p, int n) {
  GeP1P1 t = dbl(p.X, p.Y, p.Z);
  for (int i = 1; i < n; ++i) {
    const GeP2 q = to_p2(t);
    t = dbl(q.X, q.Y, q.Z);
  }
  return to_p3(t);
}

// Affine Niels forms of n points with one field inversion (Montgomery's
// batch trick: invert the product of every Z, then peel it apart).
void to_precomp(const GeP3* in, GePrecomp* out, std::size_t n) {
  Fe acc = kFeOne;
  for (std::size_t i = 0; i < n; ++i) {
    out[i].yplusx = acc;  // parks Z_0 * ... * Z_{i-1} until the way back
    acc = fe_mul(acc, in[i].Z);
  }
  Fe inv = fe_invert(acc);  // 1 / (Z_0 * ... * Z_i) at step i below
  for (std::size_t i = n; i-- > 0;) {
    const Fe zinv = fe_mul(inv, out[i].yplusx);
    inv = fe_mul(inv, in[i].Z);
    const Fe x = fe_mul(in[i].X, zinv);
    const Fe y = fe_mul(in[i].Y, zinv);
    out[i] = GePrecomp{fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), fe_edwards_2d())};
  }
}

// Odd multiples (1, 3, ..., 2N-1) * 2^(64j) * p for j = 0..3, affine.
template <std::size_t N>
void split_odd_multiples(const GeP3& p, GePrecomp (&out)[4][N]) {
  GeP3 pts[4][N];
  GeP3 base = p;
  for (std::size_t j = 0; j < 4; ++j) {
    const GeP3 twice = ge_double(base);
    const GeCached twice_cached = ge_to_cached(twice);
    pts[j][0] = base;
    for (std::size_t i = 1; i < N; ++i) pts[j][i] = ge_add(pts[j][i - 1], twice_cached);
    if (j < 3) base = double_times(twice, 63);
  }
  to_precomp(&pts[0][0], &out[0][0], 4 * N);
}

// Width-w NAF of a 256-bit scalar: odd digits below 2^(w-1) in magnitude,
// any two non-zero ones at least w positions apart. A carry out of a window
// near the top of a full 256-bit scalar lands past bit 255, so r holds
// kNafDigits entries; below 2^255 every digit sits at bit 255 or lower.
constexpr int kNafDigits = 256 + 8;

void naf(signed char* r, const std::uint8_t a[32], int w) {
  std::uint64_t x[5] = {util::load64_le(a), util::load64_le(a + 8), util::load64_le(a + 16),
                        util::load64_le(a + 24), 0};
  const std::uint64_t width = std::uint64_t{1} << w;
  std::uint64_t carry = 0;
  std::fill(r, r + kNafDigits, 0);
  for (int pos = 0; pos < kNafDigits;) {
    const int idx = pos / 64, bit = pos % 64;
    std::uint64_t bits = x[idx] >> bit;
    if (bit != 0 && idx < 4) bits |= x[idx + 1] << (64 - bit);
    const std::uint64_t window = carry + (bits & (width - 1));
    if ((window & 1) == 0) {  // even: move on, carrying the carry along
      ++pos;
      continue;
    }
    carry = window >= width / 2;
    r[pos] = static_cast<signed char>(static_cast<int>(window) - static_cast<int>(carry * width));
    pos += w;
  }
}

// The digit of the split pass's chunk j at step i: bit position 64j + i,
// where the top chunk also takes the digits past bit 255.
constexpr int kSplitSteps = kNafDigits - 192;
int chunk_digit(const signed char* r, int j, int i) {
  return i < 64 || j == 3 ? r[64 * j + i] : 0;
}

// Fixed-base table: win[i][d - 1] = d * 2^(w i) * B for the magnitudes
// d = 1..2^(w-1) of the signed radix-2^w digits of a 256-bit scalar. With
// w = 6 that is 43 windows of 32 entries (165 KB), so a fixed-base product
// is at most 43 mixed additions and no doublings.
constexpr int kBaseBits = 6;
constexpr int kBaseDigits = 1 << (kBaseBits - 1);
constexpr int kBaseWindows = 256 / kBaseBits + 1;
struct BaseTable {
  GePrecomp win[kBaseWindows][kBaseDigits];
};

const BaseTable& base_table() {
  static const BaseTable table = [] {
    std::vector<GeP3> pts(kBaseWindows * kBaseDigits);
    GeP3 p = ge_base();  // 2^(w i) * B
    for (int i = 0; i < kBaseWindows; ++i) {
      const GeCached pc = ge_to_cached(p);
      GeP3* row = &pts[kBaseDigits * static_cast<std::size_t>(i)];
      row[0] = p;
      for (int d = 1; d < kBaseDigits; ++d) row[d] = ge_add(row[d - 1], pc);
      p = ge_double(row[kBaseDigits - 1]);
    }
    BaseTable t;
    to_precomp(pts.data(), &t.win[0][0], pts.size());
    return t;
  }();
  return table;
}

// Odd multiples of 2^(64j) B up to 63 for the base half of the split Straus
// pass; the wider window than a key's pays off because it is built once.
struct BaseSplitTable {
  GePrecomp odd[4][32];
};

const BaseSplitTable& base_split_table() {
  static const BaseSplitTable table = [] {
    BaseSplitTable t;
    split_odd_multiples(ge_base(), t.odd);
    return t;
  }();
  return table;
}

}  // namespace

GeP3 ge_identity() {
  return GeP3{kFeZero, kFeOne, kFeOne, kFeZero};
}

GeCached ge_to_cached(const GeP3& p) {
  return GeCached{fe_add(p.Y, p.X), fe_sub(p.Y, p.X), p.Z, fe_mul(p.T, fe_edwards_2d())};
}

GeP3 ge_add(const GeP3& p, const GeCached& q) {
  const Fe zz = fe_mul(p.Z, q.Z);
  return to_p3(add<false>(p, q.YplusX, q.YminusX, fe_add(zz, zz), q.T2d));
}

GeP3 ge_double(const GeP3& p) {
  return to_p3(dbl(p.X, p.Y, p.Z));
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

  // Only the canonical encoding of y is accepted: its re-encoding
  // (sign bit aside) gives back the input bytes.
  std::uint8_t canonical[32];
  fe_tobytes(canonical, y);
  canonical[31] |= static_cast<std::uint8_t>(sign << 7);
  if (!util::ct_equal(util::ByteView(canonical, 32), util::ByteView(s, 32))) return false;

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

bool ge_is_small_order(const GeP3& p) {
  // [8]p has x = 0 only as the identity: the other point with x = 0,
  // (0, -1), has order 2, and no point of the 8L-element group has order 16.
  return fe_is_zero(double_times(p, 3).X);
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
  // Signed radix 2^w: digits in [-2^(w-1), 2^(w-1)).
  signed char e[kBaseWindows];
  int carry = 0;
  for (int i = 0; i < kBaseWindows; ++i) {
    const int bit = kBaseBits * i, byte = bit >> 3;
    const unsigned lo = byte < 32 ? scalar[byte] : 0u;
    const unsigned hi = byte + 1 < 32 ? scalar[byte + 1] : 0u;
    const int v = static_cast<int>(((lo | hi << 8) >> (bit & 7)) & ((1u << kBaseBits) - 1)) + carry;
    carry = (v + kBaseDigits) >> kBaseBits;
    e[i] = static_cast<signed char>(v - (carry << kBaseBits));
  }
  const BaseTable& table = base_table();
  GeP3 r = ge_identity();
  for (int i = 0; i < kBaseWindows; ++i) {
    if (e[i] > 0) r = to_p3(madd(r, table.win[i][e[i] - 1], false));
    if (e[i] < 0) r = to_p3(madd(r, table.win[i][-e[i] - 1], true));
  }
  return r;
}

GeSplitTable ge_split_table(const GeP3& a) {
  GeSplitTable t;
  split_odd_multiples(a, t.odd);
  return t;
}

GeP3 ge_double_scalarmult_vartime(const std::uint8_t s[32], const GeSplitTable& a,
                                  const std::uint8_t k[32]) {
  signed char sdig[kNafDigits], kdig[kNafDigits];
  naf(sdig, s, 7);  // |digit| <= 63, over the static B tables
  naf(kdig, k, 5);  // |digit| <= 15, over the key's
  const BaseSplitTable& b = base_split_table();

  int top = kSplitSteps - 1;
  auto step_has_digit = [&](int i) {
    for (int j = 0; j < 4; ++j)
      if (chunk_digit(sdig, j, i) || chunk_digit(kdig, j, i)) return true;
    return false;
  };
  while (top >= 0 && !step_has_digit(top)) --top;

  GeP1P1 t{kFeZero, kFeOne, kFeOne, kFeOne};  // the identity
  for (int i = top; i >= 0; --i) {
    if (i != top) {
      const GeP2 q = to_p2(t);
      t = dbl(q.X, q.Y, q.Z);
    }
    for (int j = 0; j < 4; ++j) {
      if (const int d = chunk_digit(sdig, j, i)) t = madd(to_p3(t), b.odd[j][std::abs(d) / 2], d < 0);
      // Subtracting k * A: a positive digit subtracts.
      if (const int d = chunk_digit(kdig, j, i)) t = madd(to_p3(t), a.odd[j][std::abs(d) / 2], d > 0);
    }
  }
  return to_p3(t);
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
