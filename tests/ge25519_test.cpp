// Fast-path crypto tests: the lazily reduced field arithmetic at its
// documented limb bounds cross-checked against a mod-p big-number reference,
// the table/wNAF/Shamir scalar-multiplication variants cross-checked against
// the generic double-and-add ladder, the fold-based scalar reduction
// cross-checked against an independent binary long division, and batch
// verification (success, isolation of corrupted signatures, malformed
// inputs).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/ge25519.hpp"
#include "crypto/sc25519.hpp"
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

// The chains the call sites build (fe25519.hpp: the ladder, ge_add, ge_sub
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

    // ge_add / ge_sub: e = a - b (5.001) against f = 2zz - c (6.002).
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

    // fe_tobytes straight off a lazy sum of differences.
    sc::Fe lazy = sc::fe_add(sc::fe_sub(t[0], t[1]), sc::fe_sub(t[2], t[3]));
    EXPECT_EQ(fe_hex(lazy), num_hex(num_add(num_minus(n[0], n[1]), num_minus(n[2], n[3]))));
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

TEST(Ge25519, WnafRandomizedSweepIncludingUnreducedScalars) {
  // The wNAF recoding behind the Shamir chain carries borrows above bit 255
  // for full 256-bit scalars; sweep the interesting scalars, then many
  // unreduced ones (plus dense-bit patterns), through both digit windows
  // (s over the B table, k over A's) against the generic ladder.
  sc::Drbg d(su::to_bytes("wnaf-sweep"));
  sc::GeP3 a = random_point(d);
  auto check = [&](const sc::Scalar& s, const sc::Scalar& k, int i) {
    sc::GeP3 sb = sc::ge_scalarmult_generic(sc::ge_base(), s.data());
    sc::GeP3 ka = sc::ge_scalarmult_generic(a, k.data());
    EXPECT_EQ(enc(sc::ge_double_scalarmult_base_vartime(s.data(), a, k.data())),
              enc(sc::ge_add(sb, sc::ge_to_cached(ka))))
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

TEST(Ge25519, ShamirMatchesSeparateMultiplications) {
  sc::Drbg d(su::to_bytes("shamir"));
  for (int i = 0; i < 10; ++i) {
    auto s = d.generate_array<32>();
    auto k = d.generate_array<32>();
    sc::GeP3 a = random_point(d);
    sc::GeP3 combined = sc::ge_double_scalarmult_base_vartime(s.data(), a, k.data());
    sc::GeP3 sb = sc::ge_scalarmult_generic(sc::ge_base(), s.data());
    sc::GeP3 ka = sc::ge_scalarmult_generic(a, k.data());
    EXPECT_EQ(enc(combined), enc(sc::ge_add(sb, sc::ge_to_cached(ka)))) << i;
  }
}

TEST(Ge25519, SubtractingAPointGivesTheIdentity) {
  sc::Drbg d(su::to_bytes("ident"));
  sc::GeP3 p = random_point(d);
  EXPECT_EQ(enc(sc::ge_sub(p, sc::ge_to_cached(p))), enc(sc::ge_identity()));
  EXPECT_NE(enc(sc::ge_base()), enc(sc::ge_identity()));
}
