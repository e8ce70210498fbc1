// Fast-path crypto tests: the lazily reduced field arithmetic at its
// documented limb bounds and the safegcd inversion cross-checked against a
// mod-p big-number reference, the fixed-base table and the split Straus
// pass cross-checked against the generic double-and-add ladder, the
// fold-based scalar reduction cross-checked against an independent binary
// long division, and Ed25519 verdicts: pinned on hostile keys, nonces and
// scalars, and matched against a from-first-principles verifier with the
// prepared key cold, warm and evicted.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/ge25519.hpp"
#include "crypto/sc25519.hpp"
#include "crypto/sha512.hpp"
#include "util/bytes.hpp"

namespace sc = sos::crypto;
namespace su = sos::util;

namespace {

std::string enc(const sc::GeP3& p) {
  std::uint8_t s[32];
  sc::ge_tobytes(s, p);
  return su::hex_encode(su::ByteView(s, 32));
}

std::vector<sc::Scalar> interesting_scalars() {
  std::vector<sc::Scalar> out;
  sc::Scalar s{};
  out.push_back(s);  // zero
  s[0] = 1;
  out.push_back(s);  // one
  s[0] = 2;
  out.push_back(s);  // two
  sc::Scalar ff;
  ff.fill(0xff);
  out.push_back(ff);  // all ones (>= L: the ladders work on raw 256-bit input)
  sc::Drbg d(su::to_bytes("scalar-cases"));
  for (int i = 0; i < 12; ++i) out.push_back(d.generate_array<32>());
  return out;
}

sc::GeP3 random_point(sc::Drbg& d) {
  return sc::ge_scalarmult_generic(sc::ge_base(), d.generate_array<32>().data());
}

// Independent reference: the seed's bit-by-bit binary long division mod L.
sc::Scalar reference_reduce64(const std::uint8_t in[64]) {
  const std::uint64_t L[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0ULL,
                              0x1000000000000000ULL};
  std::uint64_t r[4] = {0, 0, 0, 0};
  auto geq = [&] {
    for (int i = 3; i >= 0; --i) {
      if (r[i] > L[i]) return true;
      if (r[i] < L[i]) return false;
    }
    return true;
  };
  for (int bit = 511; bit >= 0; --bit) {
    std::uint64_t carry = 0;
    for (int i = 0; i < 4; ++i) {
      std::uint64_t nc = r[i] >> 63;
      r[i] = (r[i] << 1) | carry;
      carry = nc;
    }
    r[0] |= (in[bit / 8] >> (bit % 8)) & 1;
    if (geq()) {
      unsigned __int128 borrow = 0;
      for (int i = 0; i < 4; ++i) {
        unsigned __int128 d = (unsigned __int128)r[i] - L[i] - borrow;
        r[i] = (std::uint64_t)d;
        borrow = (d >> 64) & 1;
      }
    }
  }
  sc::Scalar out;
  for (int i = 0; i < 4; ++i) su::store64_le(out.data() + 8 * i, r[i]);
  return out;
}

}  // namespace

// --- field arithmetic at the fe25519.hpp limb bounds ------------------------

namespace {
// Test-only mod-p reference: numbers as little-endian base-2^32 digits,
// schoolbook products, reduction by folding 2^255 = 19 (mod p).
using Num = std::array<std::uint64_t, 20>;
using u128 = unsigned __int128;
constexpr std::uint64_t kDigit = 0xffffffffULL;
constexpr Num kP = {0xffffffedULL, kDigit, kDigit, kDigit, kDigit, kDigit, kDigit, 0x7fffffffULL};

void normalize(Num& x) {
  std::uint64_t carry = 0;
  for (auto& d : x) {
    d += carry;
    carry = d >> 32;
    d &= kDigit;
  }
  EXPECT_EQ(carry, 0u);
}

bool num_geq(const Num& a, const Num& b) {
  for (int i = 19; i >= 0; --i)
    if (a[i] != b[i]) return a[i] > b[i];
  return true;
}

Num num_sub(const Num& a, const Num& b) {  // requires a >= b
  Num r{};
  std::int64_t borrow = 0;
  for (int i = 0; i < 20; ++i) {
    std::int64_t d = static_cast<std::int64_t>(a[i]) - static_cast<std::int64_t>(b[i]) - borrow;
    borrow = d < 0;
    r[i] = static_cast<std::uint64_t>(d + (borrow << 32));
  }
  return r;
}

Num num_mod_p(Num x) {
  for (;;) {
    Num hi{};
    bool any = false;
    for (int k = 0; k + 7 < 20; ++k) {
      std::uint64_t lo_bits = x[7 + k] >> 31;
      std::uint64_t hi_bits = k + 8 < 20 ? (x[8 + k] << 1) & kDigit : 0;
      hi[k] = lo_bits | hi_bits;
      any = any || hi[k] != 0;
    }
    if (!any) break;
    x[7] &= 0x7fffffffULL;
    for (int k = 8; k < 20; ++k) x[k] = 0;
    for (int k = 0; k < 20; ++k) x[k] += 19 * hi[k];
    normalize(x);
  }
  if (num_geq(x, kP)) x = num_sub(x, kP);
  return x;
}

Num num_from_fe(const sc::Fe& f) {
  Num x{};
  for (int i = 0; i < 5; ++i) {
    const int shift = 51 * i;
    u128 v = static_cast<u128>(f.v[i]) << (shift % 32);
    for (int w = shift / 32; v != 0; ++w, v >>= 32) x[static_cast<std::size_t>(w)] += v & kDigit;
  }
  normalize(x);
  return num_mod_p(x);
}

Num num_add(const Num& a, const Num& b) {
  Num r{};
  for (int i = 0; i < 20; ++i) r[i] = a[i] + b[i];
  normalize(r);
  return num_mod_p(r);
}

Num num_minus(const Num& a, const Num& b) {  // a - b mod p, both reduced
  Num r{};
  for (int i = 0; i < 20; ++i) r[i] = a[i] + kP[i];
  normalize(r);
  return num_mod_p(num_sub(r, b));
}

Num num_mul(const Num& a, const Num& b) {  // both reduced: product < 2^510
  std::array<u128, 40> acc{};
  for (int i = 0; i < 20; ++i)
    for (int j = 0; j < 20; ++j) acc[i + j] += static_cast<u128>(a[i]) * b[j];
  Num r{};
  u128 carry = 0;
  for (int k = 0; k < 40; ++k) {
    carry += acc[k];
    if (k < 20) r[k] = static_cast<std::uint64_t>(carry & kDigit);
    carry >>= 32;
  }
  return num_mod_p(r);
}

std::string num_hex(const Num& x) {
  std::uint8_t out[32];
  for (int i = 0; i < 8; ++i) su::store32_le(out + 4 * i, static_cast<std::uint32_t>(x[i]));
  return su::hex_encode(su::ByteView(out, 32));
}

std::string fe_hex(const sc::Fe& f) {
  std::uint8_t out[32];
  sc::fe_tobytes(out, f);
  return su::hex_encode(su::ByteView(out, 32));
}

// The tight bound of fe25519.hpp, and a limb value of `num / den` units of
// 2^51.
constexpr std::uint64_t kTight = (std::uint64_t{1} << 51) + (std::uint64_t{1} << 26);
std::uint64_t units(std::uint64_t num, std::uint64_t den) {
  return static_cast<std::uint64_t>((static_cast<u128>(1) << 51) * num / den);
}

// Limbs at `max`, or drawn from its top eighth; both kinds probe the bound.
sc::Fe near(sc::Drbg& d, std::uint64_t max, bool exact) {
  sc::Fe f;
  for (auto& limb : f.v) {
    if (exact) {
      limb = max;
    } else {
      std::uint64_t r = su::load64_le(d.generate_array<8>().data());
      limb = max - r % (max / 8);
    }
  }
  return f;
}

void expect_tight(const sc::Fe& f) {
  for (auto limb : f.v) EXPECT_LE(limb, kTight);
}
}  // namespace

TEST(Fe25519, ReferenceAgreesOnSmallValues) {
  Num six = num_from_fe(sc::fe_from_u64(6)), seven = num_from_fe(sc::fe_from_u64(7));
  EXPECT_EQ(num_hex(num_mul(six, seven)), fe_hex(sc::fe_from_u64(42)));
  EXPECT_EQ(num_hex(num_minus(six, seven)), fe_hex(sc::fe_neg(sc::kFeOne)));
}

// fe_mul / fe_sq at B(a) * B(b) = 80 split several ways, fe_mul121666 at
// B = 16, fe_sub with b at the 4p limbs, and fe_tobytes at 2^62: every
// result equals the reference and the multiplications come out tight.
TEST(Fe25519, OperationsAtDocumentedBounds) {
  sc::Drbg d(su::to_bytes("fe-bounds"));
  const std::pair<std::uint64_t, std::uint64_t> mul_splits[] = {
      {units(894, 100), units(894, 100)}, {units(16, 1), units(5, 1)},
      {units(40, 1), units(2, 1)}, {units(799, 10), kTight}};
  for (int trial = 0; trial < 40; ++trial) {
    const bool exact = trial < 2;
    for (const auto& [max_a, max_b] : mul_splits) {
      sc::Fe a = near(d, max_a, exact), b = near(d, max_b, exact);
      sc::Fe ab = sc::fe_mul(a, b), ba = sc::fe_mul(b, a);
      EXPECT_EQ(fe_hex(ab), num_hex(num_mul(num_from_fe(a), num_from_fe(b))));
      EXPECT_EQ(fe_hex(ba), fe_hex(ab));
      expect_tight(ab);
      expect_tight(ba);
    }
    sc::Fe s = near(d, units(894, 100), exact);
    sc::Fe ss = sc::fe_sq(s);
    EXPECT_EQ(fe_hex(ss), num_hex(num_mul(num_from_fe(s), num_from_fe(s))));
    expect_tight(ss);

    sc::Fe m = near(d, units(16, 1), exact);
    sc::Fe m121666 = sc::fe_mul121666(m);
    const Num n121666 = num_from_fe(sc::fe_from_u64(121666));
    EXPECT_EQ(fe_hex(m121666), num_hex(num_mul(num_from_fe(m), n121666)));
    expect_tight(m121666);

    sc::Fe big = near(d, (std::uint64_t{1} << 62) - 1, exact);
    sc::Fe neg = sc::fe_neg(big);
    EXPECT_EQ(fe_hex(neg), num_hex(num_minus(num_from_fe(sc::kFeZero), num_from_fe(big))));
    expect_tight(neg);

    // fe_sub's b at its limit (the 4p limbs themselves, or just under
    // 3.99u) against minuends from zero up.
    const sc::Fe four_p{{4 * (sc::kFeMask51 + 1 - 19), 4 * sc::kFeMask51, 4 * sc::kFeMask51,
                         4 * sc::kFeMask51, 4 * sc::kFeMask51}};
    for (const sc::Fe& b : {four_p, near(d, units(399, 100), exact)}) {
      for (const sc::Fe& a : {sc::kFeZero, near(d, kTight, exact), near(d, units(60, 1), exact)}) {
        EXPECT_EQ(fe_hex(sc::fe_sub(a, b)), num_hex(num_minus(num_from_fe(a), num_from_fe(b))));
      }
    }
    sc::Fe a = near(d, units(60, 1), exact);
    EXPECT_EQ(fe_hex(sc::fe_sub(a, a)), fe_hex(sc::kFeZero));
  }
}

// The chains the call sites build (fe25519.hpp: the ladder, the additions
// and ge_double), started from tight operands at their maximum and fed into
// mul, sq, mul121666 and tobytes.
TEST(Fe25519, LazyChainsFromTightMaxima) {
  sc::Drbg d(su::to_bytes("fe-chains"));
  for (int trial = 0; trial < 40; ++trial) {
    const bool exact = trial < 2;
    sc::Fe t[4];
    Num n[4];
    for (int i = 0; i < 4; ++i) {
      t[i] = near(d, kTight, exact);
      n[i] = num_from_fe(t[i]);
    }
    // Ladder: a = x2 + z2, b = x2 - z2, e = aa - bb, z2' = e * (bb + 121666 e).
    sc::Fe a = sc::fe_add(t[0], t[1]), b = sc::fe_sub(t[0], t[1]);
    Num na = num_add(n[0], n[1]), nb = num_minus(n[0], n[1]);
    sc::Fe aa = sc::fe_sq(a), bb = sc::fe_sq(b);
    Num naa = num_mul(na, na), nbb = num_mul(nb, nb);
    sc::Fe e = sc::fe_sub(aa, bb);
    Num ne = num_minus(naa, nbb);
    sc::Fe z2 = sc::fe_mul(e, sc::fe_add(bb, sc::fe_mul121666(e)));
    Num nz2 = num_mul(ne, num_add(nbb, num_mul(ne, num_from_fe(sc::fe_from_u64(121666)))));
    EXPECT_EQ(fe_hex(z2), num_hex(nz2));
    sc::Fe da = sc::fe_mul(sc::fe_sub(t[2], t[3]), a);
    sc::Fe cb = sc::fe_mul(sc::fe_add(t[2], t[3]), b);
    Num nda = num_mul(num_minus(n[2], n[3]), na), ncb = num_mul(num_add(n[2], n[3]), nb);
    EXPECT_EQ(fe_hex(sc::fe_sq(sc::fe_sub(da, cb))), num_hex(num_mul(num_minus(nda, ncb),
                                                                     num_minus(nda, ncb))));
    EXPECT_EQ(fe_hex(sc::fe_sq(sc::fe_add(da, cb))),
              num_hex(num_mul(num_add(nda, ncb), num_add(nda, ncb))));

    // Additions (ge25519.cpp add): e = a - b (5.001) against f = 2zz - c (6.002).
    sc::Fe zz2 = sc::fe_add(t[0], t[0]);
    sc::Fe f = sc::fe_sub(zz2, t[1]), g = sc::fe_add(zz2, t[1]);
    Num nzz2 = num_add(n[0], n[0]);
    Num nf = num_minus(nzz2, n[1]), ng = num_add(nzz2, n[1]);
    sc::Fe e2 = sc::fe_sub(t[2], t[3]);
    Num ne2 = num_minus(n[2], n[3]);
    EXPECT_EQ(fe_hex(sc::fe_mul(e2, f)), num_hex(num_mul(ne2, nf)));
    EXPECT_EQ(fe_hex(sc::fe_mul(g, f)), num_hex(num_mul(ng, nf)));

    // ge_double: t = (2zz + xx) - yy (7.003) against 2xy = s - (yy + xx) (5.001).
    sc::Fe dt = sc::fe_sub(sc::fe_add(zz2, t[2]), t[3]);
    sc::Fe xy2 = sc::fe_sub(t[1], sc::fe_add(t[3], t[2]));
    Num ndt = num_minus(num_add(nzz2, n[2]), n[3]);
    Num nxy2 = num_minus(n[1], num_add(n[3], n[2]));
    EXPECT_EQ(fe_hex(sc::fe_mul(xy2, dt)), num_hex(num_mul(nxy2, ndt)));
    EXPECT_EQ(fe_hex(dt), num_hex(ndt));

    // Mixed addition against an affine Niels entry (ge25519.cpp add): Y1 -
    // X1 (5.001) times the entry's y - x (5.001); its 2 Z1 -+ c products
    // have the bounds of the g * f above.
    sc::Fe niels_minus = sc::fe_sub(t[0], t[1]);
    EXPECT_EQ(fe_hex(sc::fe_mul(e2, niels_minus)), num_hex(num_mul(ne2, num_minus(n[0], n[1]))));

    // fe_tobytes straight off a lazy sum of differences.
    sc::Fe lazy = sc::fe_add(sc::fe_sub(t[0], t[1]), sc::fe_sub(t[2], t[3]));
    Num nlazy = num_add(num_minus(n[0], n[1]), num_minus(n[2], n[3]));
    EXPECT_EQ(fe_hex(lazy), num_hex(nlazy));

    // fe_invert straight off the same lazy sum: its conversion to signed
    // 62-bit limbs reduces first, so any limbs below 2^62 go in.
    if (nlazy != Num{}) {
      EXPECT_EQ(fe_hex(sc::fe_mul(sc::fe_invert(lazy), lazy)), fe_hex(sc::kFeOne));
    }
  }
}

namespace {
// a^(p-2) mod p by square-and-multiply in the reference arithmetic.
Num num_invert(const Num& a) {
  Num r = num_from_fe(sc::kFeOne);
  for (int bit = 254; bit >= 0; --bit) {  // p - 2 = 2^255 - 21
    r = num_mul(r, r);
    const bool set = bit >= 5 || bit == 3 || bit <= 1;  // low bits 01011
    if (set) r = num_mul(r, a);
  }
  return r;
}
}  // namespace

// fe_invert (safegcd divsteps) against Fermat's a^(p-2): random elements,
// 0 (whose inverse is defined as 0), 1, p-1, and limbs at the tight bound
// and at 2^62 - 1.
TEST(Fe25519, InvertMatchesFermatReference) {
  sc::Drbg d(su::to_bytes("fe-invert"));
  std::vector<sc::Fe> cases = {sc::kFeZero, sc::kFeOne, sc::fe_neg(sc::kFeOne),
                               near(d, kTight, true), near(d, (std::uint64_t{1} << 62) - 1, true)};
  // p itself and 2p as raw limbs: both are zero mod p.
  cases.push_back(sc::Fe{{sc::kFeMask51 - 18, sc::kFeMask51, sc::kFeMask51, sc::kFeMask51,
                          sc::kFeMask51}});
  cases.push_back(sc::Fe{{2 * (sc::kFeMask51 - 18), 2 * sc::kFeMask51, 2 * sc::kFeMask51,
                          2 * sc::kFeMask51, 2 * sc::kFeMask51}});
  for (int i = 0; i < 24; ++i) {
    const bool at_bound = i % 3 == 0;
    cases.push_back(at_bound ? near(d, (std::uint64_t{1} << 62) - 1, false)
                             : sc::fe_frombytes(d.generate_array<32>().data()));
  }
  for (const sc::Fe& a : cases) {
    const sc::Fe inv = sc::fe_invert(a);
    EXPECT_EQ(fe_hex(inv), num_hex(num_invert(num_from_fe(a)))) << fe_hex(a);
    expect_tight(inv);
  }
}

// --- scalar reduction cross-checks -----------------------------------------

TEST(Sc25519, FoldReduceMatchesBinaryDivision) {
  sc::Drbg d(su::to_bytes("sc-fold"));
  for (int i = 0; i < 200; ++i) {
    auto wide = d.generate_array<64>();
    EXPECT_EQ(sc::sc_reduce64(wide.data()), reference_reduce64(wide.data())) << i;
  }
  // Edge patterns: all-zero, all-ones, only high limbs set.
  std::array<std::uint8_t, 64> x{};
  EXPECT_EQ(sc::sc_reduce64(x.data()), reference_reduce64(x.data()));
  x.fill(0xff);
  EXPECT_EQ(sc::sc_reduce64(x.data()), reference_reduce64(x.data()));
  x.fill(0);
  for (int i = 32; i < 64; ++i) x[i] = 0xff;
  EXPECT_EQ(sc::sc_reduce64(x.data()), reference_reduce64(x.data()));
}

TEST(Sc25519, MulAddConsistency) {
  sc::Drbg d(su::to_bytes("sc-muladd"));
  for (int i = 0; i < 50; ++i) {
    auto a = sc::sc_reduce32(d.generate_array<32>());
    auto b = sc::sc_reduce32(d.generate_array<32>());
    auto c = sc::sc_reduce32(d.generate_array<32>());
    // a*b + c computed two ways.
    EXPECT_EQ(sc::sc_muladd(a, b, c), sc::sc_add(sc::sc_mul(a, b), c)) << i;
    // Results stay canonical.
    EXPECT_TRUE(sc::sc_is_canonical(sc::sc_mul(a, b)));
    EXPECT_TRUE(sc::sc_is_canonical(sc::sc_add(a, b)));
  }
}

// --- scalar multiplication variants vs the generic ladder -------------------

TEST(Ge25519, FixedBaseTableMatchesGeneric) {
  for (const auto& s : interesting_scalars()) {
    EXPECT_EQ(enc(sc::ge_scalarmult_base(s.data())),
              enc(sc::ge_scalarmult_generic(sc::ge_base(), s.data())));
  }
}

namespace {
sc::GeP3 neg(const sc::GeP3& p) {
  return sc::GeP3{sc::fe_neg(p.X), p.Y, p.Z, sc::fe_neg(p.T)};
}

// s * B - k * A by the generic ladder.
std::string reference_straus(const sc::Scalar& s, const sc::GeP3& a, const sc::Scalar& k) {
  sc::GeP3 sb = sc::ge_scalarmult_generic(sc::ge_base(), s.data());
  sc::GeP3 ka = sc::ge_scalarmult_generic(a, k.data());
  return enc(sc::ge_add(sb, sc::ge_to_cached(neg(ka))));
}

// A decoded point of full order 8L: the first small y that names one.
sc::GeP3 mixed_order_point() {
  for (std::uint8_t y = 2;; ++y) {
    std::uint8_t e[32] = {y};
    sc::GeP3 p;
    if (sc::ge_frombytes(p, e) && !sc::ge_is_small_order(p)) return p;
  }
}
}  // namespace

TEST(Ge25519, WnafRandomizedSweepIncludingUnreducedScalars) {
  // The wNAF recoding behind the split Straus pass carries borrows above
  // bit 255 for full 256-bit scalars, into the top chunk's extra step; sweep
  // the interesting scalars, then many unreduced ones (plus dense-bit
  // patterns), through both digit windows (s over the B tables, k over A's)
  // against the generic ladder.
  sc::Drbg d(su::to_bytes("wnaf-sweep"));
  sc::GeP3 a = random_point(d);
  const sc::GeSplitTable table = sc::ge_split_table(a);
  auto check = [&](const sc::Scalar& s, const sc::Scalar& k, int i) {
    EXPECT_EQ(enc(sc::ge_double_scalarmult_vartime(s.data(), table, k.data())),
              reference_straus(s, a, k))
        << i;
  };
  for (const auto& s : interesting_scalars()) check(s, s, -1);
  for (int i = 0; i < 200; ++i) {
    auto s = d.generate_array<32>();
    if (i % 4 == 0) s[31] |= 0xe0;            // force the top bits high
    if (i % 7 == 0) std::memset(s.data() + 24, 0xff, 8);  // dense top limb
    check(s, s, i);
    check(s, d.generate_array<32>(), i);
  }
}

TEST(Ge25519, SplitStrausMatchesSeparateMultiplications) {
  // Prime-order points, and one of full order 8L whose tables carry the
  // torsion component through every chunk.
  sc::Drbg d(su::to_bytes("shamir"));
  for (int i = 0; i < 11; ++i) {
    auto s = d.generate_array<32>();
    auto k = d.generate_array<32>();
    sc::GeP3 a = i < 10 ? random_point(d) : mixed_order_point();
    sc::GeP3 combined = sc::ge_double_scalarmult_vartime(s.data(), sc::ge_split_table(a), k.data());
    EXPECT_EQ(enc(combined), reference_straus(s, a, k)) << i;
  }
}

TEST(Ge25519, SubtractingAPointGivesTheIdentity) {
  sc::Drbg d(su::to_bytes("ident"));
  sc::GeP3 p = random_point(d);
  EXPECT_EQ(enc(sc::ge_add(p, sc::ge_to_cached(neg(p)))), enc(sc::ge_identity()));
  EXPECT_NE(enc(sc::ge_base()), enc(sc::ge_identity()));
}

TEST(Ge25519, SmallOrderMeansEightTimesIsTheIdentity) {
  sc::Drbg d(su::to_bytes("small-order"));
  EXPECT_TRUE(sc::ge_is_small_order(sc::ge_identity()));
  EXPECT_FALSE(sc::ge_is_small_order(sc::ge_base()));
  EXPECT_FALSE(sc::ge_is_small_order(random_point(d)));
  EXPECT_FALSE(sc::ge_is_small_order(mixed_order_point()));
}

// --- Ed25519 verdicts on hostile encodings ---------------------------------

namespace {
using Enc = std::array<std::uint8_t, 32>;

Enc enc_of(const sc::GeP3& p) {
  Enc e;
  sc::ge_tobytes(e.data(), p);
  return e;
}

// The group order L, little-endian.
constexpr Enc kOrderL = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
                         0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
                         0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};

// y = p + c (c <= 18), the non-canonical encodings of the field elements c.
Enc non_canonical_y(std::uint8_t c) {
  Enc e;
  e.fill(0xff);
  e[0] = static_cast<std::uint8_t>(0xed + c);
  e[31] = 0x7f;
  return e;
}

// The eight points of order dividing 8, as [i]T for i = 0..7 where T has
// order 8: T = [L]P for the first small-y point P whose [L]P keeps order 8.
std::vector<sc::GeP3> torsion_points() {
  for (std::uint8_t y = 2;; ++y) {
    Enc e{};
    e[0] = y;
    sc::GeP3 p;
    if (!sc::ge_frombytes(p, e.data())) continue;
    sc::GeP3 t = sc::ge_scalarmult_generic(p, kOrderL.data());
    if (enc(sc::ge_double(sc::ge_double(t))) == enc(sc::ge_identity())) continue;
    std::vector<sc::GeP3> out;
    sc::GeP3 m = sc::ge_identity();
    for (int i = 0; i < 8; ++i) {
      out.push_back(m);
      m = sc::ge_add(m, sc::ge_to_cached(t));
    }
    return out;
  }
}

sc::Scalar challenge(const Enc& r, const Enc& a, const su::Bytes& msg) {
  sc::Sha512 h;
  h.update(su::ByteView(r.data(), 32));
  h.update(su::ByteView(a.data(), 32));
  h.update(msg);
  auto digest = h.finish();
  return sc::sc_reduce64(digest.data());
}

sc::EdSignature make_sig(const Enc& r, const sc::Scalar& s) {
  sc::EdSignature sig;
  std::memcpy(sig.data(), r.data(), 32);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

struct EdgeRow {
  std::string name;
  Enc pub;
  su::Bytes msg;
  sc::EdSignature sig;
};

// Hostile keys, nonces and scalars against an honest signer whose secret
// scalar the test recomputes (RFC 8032 §5.1.5), so it can also produce
// signatures under keys that are not its own public key.
std::vector<EdgeRow> edge_rows() {
  const sc::EdSeed seed = sc::Drbg(su::to_bytes("edge-signer")).generate_array<32>();
  const auto kp = sc::Ed25519Keypair::from_seed(seed);
  const Enc pub = kp.public_key();
  auto h = sc::Sha512::hash(su::ByteView(seed.data(), seed.size()));
  sc::Scalar a;
  std::memcpy(a.data(), h.data(), 32);
  a[0] &= 248;
  a[31] &= 63;
  a[31] |= 64;
  const sc::Scalar zero{};
  sc::Scalar one{};
  one[0] = 1;
  const Enc base = enc_of(sc::ge_base());
  const auto torsion = torsion_points();
  std::vector<EdgeRow> rows;
  auto msg_of = [](int i) { return su::to_bytes("edge-" + std::to_string(i)); };
  // (R = B, S = 1): sB - kA = B - kA equals R exactly when kA is the identity.
  auto trivial = [&](const std::string& name, const Enc& key, int m) {
    rows.push_back({name, key, msg_of(m), make_sig(base, one)});
  };
  // S = k a: sB - kA is the identity under the honest key, whatever R says.
  auto zero_nonce = [&](const std::string& name, const Enc& r, int m) {
    const su::Bytes msg = msg_of(m);
    rows.push_back({name, pub, msg, make_sig(r, sc::sc_muladd(challenge(r, pub, msg), a, zero))});
  };

  const su::Bytes honest_msg = msg_of(0);
  rows.push_back({"honest", pub, honest_msg, kp.sign(honest_msg)});
  for (int i = 0; i < 8; ++i)
    for (int m = 0; m < 2; ++m)
      trivial("small-order A [" + std::to_string(i) + "]T8 m" + std::to_string(m),
              enc_of(torsion[i]), m);
  for (int i = 0; i < 8; ++i)
    zero_nonce("small-order R [" + std::to_string(i) + "]T8", enc_of(torsion[i]), 0);
  for (std::uint8_t c = 0; c <= 18; ++c) {
    Enc reduced{};  // the canonical encoding of the same y
    reduced[0] = c;
    sc::GeP3 p;
    if (!sc::ge_frombytes(p, reduced.data())) continue;
    const Enc key = non_canonical_y(c);
    for (int m = 0; m < 2; ++m)
      trivial("non-canonical A y=p+" + std::to_string(c) + " m" + std::to_string(m), key, m);
  }
  zero_nonce("non-canonical R y=p+1 (identity)", non_canonical_y(1), 0);
  Enc signed_zero_x{};
  signed_zero_x[0] = 1;
  signed_zero_x[31] = 0x80;  // (0, 1) with the sign bit of x set
  trivial("A x=0 sign set", signed_zero_x, 0);
  zero_nonce("R x=0 sign set", signed_zero_x, 0);
  for (std::uint8_t y = 2;; ++y) {
    Enc off{};
    off[0] = y;
    sc::GeP3 p;
    if (sc::ge_frombytes(p, off.data())) continue;
    trivial("off-curve A y=" + std::to_string(y), off, 0);
    zero_nonce("off-curve R y=" + std::to_string(y), off, 0);
    break;
  }
  // Mixed order: A' = A + T8 under the honest secret. sB - kA' = R - kT8,
  // so the cofactorless check accepts exactly when 8 divides k.
  sc::GeP3 honest_point;
  sc::ge_frombytes(honest_point, pub.data());
  const Enc mixed = enc_of(sc::ge_add(honest_point, sc::ge_to_cached(torsion[1])));
  sc::Drbg nonces(su::to_bytes("edge-nonces"));
  for (int m = 0; m < 8; ++m) {
    const su::Bytes msg = msg_of(m);
    const sc::Scalar r = sc::sc_reduce32(nonces.generate_array<32>());
    const Enc r_enc = enc_of(sc::ge_scalarmult_generic(sc::ge_base(), r.data()));
    rows.push_back({"mixed-order A m" + std::to_string(m), mixed, msg,
                    make_sig(r_enc, sc::sc_muladd(challenge(r_enc, mixed, msg), a, r))});
  }
  // Scalars at and past the canonical bound.
  sc::Scalar l_minus_1 = kOrderL;
  l_minus_1[0] -= 1;
  sc::EdSignature sig = kp.sign(honest_msg);
  for (const auto& [name, s] : std::vector<std::pair<std::string, sc::Scalar>>{
           {"S = L-1", l_minus_1}, {"S = L", kOrderL}}) {
    std::memcpy(sig.data() + 32, s.data(), 32);
    rows.push_back({name, pub, honest_msg, sig});
  }
  sig[63] = 0x20;  // S >= 2^253
  rows.push_back({"S >= 2^253", pub, honest_msg, sig});
  sig[63] = 0xff;
  rows.push_back({"S >= 2^255", pub, honest_msg, sig});
  // Under the identity key, R = -B with S = L-1 gives sB - kA = -B = R.
  rows.push_back({"identity A, S = L-1", enc_of(torsion[0]), honest_msg,
                  make_sig(enc_of(neg(sc::ge_base())), l_minus_1)});
  return rows;
}
}  // namespace

// One verdict per edge_rows() entry, in order. Before keys were checked
// when prepared, eight rows read 1: the identity key, canonical (small-order
// A [0]T8 m0, m1) or as y = p+1 (non-canonical A y=p+1 m0, m1), accepted
// (R = B, S = 1) and (R = -B, S = L-1) for every message, and small-order
// A [3]T8, [4]T8 and [6]T8 accepted (R = B, S = 1) whenever k killed them
// (m0). Every other row, the cofactorless mixed-order acceptance included,
// is unchanged.
constexpr std::string_view kEdgeVerdicts =
    "1"                          // honest
    "0000000000000000"           // small-order A, 8 points x 2 messages
    "10000000"                   // small-order R: only R = identity under S = k a
    "000000000000000000000000"   // non-canonical A, 12 decodable y = p+c x 2
    "0"                          // non-canonical R
    "00"                         // x = 0 with the sign bit, as A and as R
    "00"                         // off-curve y, as A and as R
    "10000000"                   // mixed-order A: accepted iff 8 divides k
    "0000"                       // S = L-1, L, >= 2^253, >= 2^255
    "0";                         // identity A, S = L-1

TEST(Ed25519, EdgeCaseVerdictsArePinned) {
  const auto rows = edge_rows();
  ASSERT_EQ(rows.size(), kEdgeVerdicts.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const bool verdict = sc::ed25519_verify(rows[i].pub, rows[i].msg, rows[i].sig);
    EXPECT_EQ(verdict, kEdgeVerdicts[i] == '1') << rows[i].name;
    // A second verify reads the prepared key from the cache.
    EXPECT_EQ(sc::ed25519_verify(rows[i].pub, rows[i].msg, rows[i].sig), verdict) << rows[i].name;
  }
}

namespace {
// The cofactorless verdict from first principles: S canonical, A a
// canonical encoding of a point outside the torsion subgroup, and
// enc([S]B - [k]A) == R by the generic ladder.
bool reference_verify(const sc::EdPublicKey& pub, const su::Bytes& msg, const sc::EdSignature& sig) {
  sc::Scalar s;
  std::memcpy(s.data(), sig.data() + 32, 32);
  if (!sc::sc_is_canonical(s)) return false;
  sc::GeP3 a;
  if (!sc::ge_frombytes(a, pub.data()) || sc::ge_is_small_order(a)) return false;
  Enc r;
  std::memcpy(r.data(), sig.data(), 32);
  return reference_straus(s, a, challenge(r, pub, msg)) == su::hex_encode(su::ByteView(r.data(), 32));
}

// A valid key other than `pub` that shares its prepared-key cache slot:
// verifying under it evicts `pub`.
sc::EdPublicKey colliding_key(const sc::EdPublicKey& pub, sc::Drbg& d) {
  for (;;) {
    sc::EdPublicKey other = d.generate_array<32>();
    other[0] = pub[0];
    other[1] = pub[1];
    other[31] &= 0x7f;
    sc::GeP3 p;
    if (other != pub && sc::ge_frombytes(p, other.data()) && !sc::ge_is_small_order(p) &&
        sc::ed25519_prepared_slot(other) == sc::ed25519_prepared_slot(pub))
      return other;
  }
}
}  // namespace

// Every verdict matches the reference whether the key is cold (its slot
// just taken by a colliding key), warm, or prepared again after another
// eviction: genuine signatures, and ones with R, S or the message tampered.
TEST(Ed25519, PreparedKeyMatchesReference) {
  sc::Drbg d(su::to_bytes("prepared-keys"));
  int accepted = 0, checked = 0;
  for (int key = 0; key < 6; ++key) {
    const auto kp = sc::Ed25519Keypair::from_seed(d.generate_array<32>());
    const sc::EdPublicKey pub = kp.public_key();
    const sc::EdPublicKey rival = colliding_key(pub, d);
    for (int m = 0; m < 3; ++m) {
      const su::Bytes msg = d.generate(static_cast<std::size_t>(1 + 29 * m));
      const sc::EdSignature sig = kp.sign(msg);
      std::vector<std::pair<su::Bytes, sc::EdSignature>> cases = {{msg, sig}};
      for (std::size_t byte : {std::size_t{3}, std::size_t{40}, std::size_t{63}}) {
        sc::EdSignature bad = sig;
        bad[byte] ^= 0x21;
        cases.emplace_back(msg, bad);
      }
      su::Bytes bad_msg = msg;
      bad_msg[0] ^= 0x01;
      cases.emplace_back(bad_msg, sig);
      for (const auto& [text, signature] : cases) {
        const bool expected = reference_verify(pub, text, signature);
        EXPECT_FALSE(sc::ed25519_verify(rival, text, signature));  // evicts pub
        EXPECT_EQ(sc::ed25519_verify(pub, text, signature), expected) << "cold " << key;
        EXPECT_EQ(sc::ed25519_verify(pub, text, signature), expected) << "warm " << key;
        EXPECT_FALSE(sc::ed25519_verify(rival, text, signature));  // evicts pub again
        EXPECT_EQ(sc::ed25519_verify(pub, text, signature), expected) << "re-prepared " << key;
        accepted += expected;
        ++checked;
      }
    }
  }
  EXPECT_EQ(accepted, 18);  // the genuine signature of each (key, message)
  EXPECT_EQ(checked, 90);
}
