// Unit and property tests for src/util: byte codecs, binary wire codec,
// deterministic RNG and distributions, statistics, time helpers.
#include <gtest/gtest.h>

#include <algorithm>

#include "util/bytes.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace su = sos::util;

TEST(Bytes, HexRoundTrip) {
  su::Bytes b = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(su::hex_encode(b), "0001abff7f");
  auto back = su::hex_decode("0001abff7f");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, b);
}

TEST(Bytes, HexDecodeRejectsOddLength) {
  EXPECT_FALSE(su::hex_decode("abc").has_value());
}

TEST(Bytes, HexDecodeRejectsNonHex) {
  EXPECT_FALSE(su::hex_decode("zz").has_value());
  EXPECT_FALSE(su::hex_decode("0g").has_value());
}

TEST(Bytes, HexDecodeAcceptsUppercase) {
  auto b = su::hex_decode("DEADBEEF");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(su::hex_encode(*b), "deadbeef");
}

TEST(Bytes, Base32KnownVectors) {
  // RFC 4648 test vectors (padding stripped).
  EXPECT_EQ(su::base32_encode(su::to_bytes("")), "");
  EXPECT_EQ(su::base32_encode(su::to_bytes("f")), "MY");
  EXPECT_EQ(su::base32_encode(su::to_bytes("fo")), "MZXQ");
  EXPECT_EQ(su::base32_encode(su::to_bytes("foo")), "MZXW6");
  EXPECT_EQ(su::base32_encode(su::to_bytes("foob")), "MZXW6YQ");
  EXPECT_EQ(su::base32_encode(su::to_bytes("fooba")), "MZXW6YTB");
  EXPECT_EQ(su::base32_encode(su::to_bytes("foobar")), "MZXW6YTBOI");
}

TEST(Bytes, Base32TenByteIdIs16Chars) {
  // The paper's user ids are 10-byte strings; 10 bytes = 80 bits = exactly
  // 16 base32 characters, no padding.
  su::Bytes id(10, 0xa5);
  EXPECT_EQ(su::base32_encode(id).size(), 16u);
}

TEST(Bytes, Base32RoundTripSweep) {
  su::Rng rng(7);
  for (int len = 0; len < 40; ++len) {
    su::Bytes b(len);
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.next());
    auto enc = su::base32_encode(b);
    auto dec = su::base32_decode(enc);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, b) << "len=" << len;
  }
}

TEST(Bytes, CtEqual) {
  su::Bytes a = {1, 2, 3};
  su::Bytes b = {1, 2, 3};
  su::Bytes c = {1, 2, 4};
  su::Bytes d = {1, 2};
  EXPECT_TRUE(su::ct_equal(a, b));
  EXPECT_FALSE(su::ct_equal(a, c));
  EXPECT_FALSE(su::ct_equal(a, d));
}

TEST(Bytes, EndianLoadStore) {
  std::uint8_t buf[8];
  su::store32_le(buf, 0x01020304u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(su::load32_le(buf), 0x01020304u);
  su::store32_be(buf, 0x01020304u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(su::load32_be(buf), 0x01020304u);
  su::store64_le(buf, 0x0102030405060708ULL);
  EXPECT_EQ(su::load64_le(buf), 0x0102030405060708ULL);
  su::store64_be(buf, 0x0102030405060708ULL);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(su::load64_be(buf), 0x0102030405060708ULL);
}

TEST(Codec, ScalarsRoundTrip) {
  su::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(3.14159);
  su::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Codec, VarintBoundaries) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xFFFFFFFFULL,
                          0xFFFFFFFFFFFFFFFFULL}) {
    su::Writer w;
    w.varint(v);
    su::Reader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Codec, StringsAndBytes) {
  su::Writer w;
  w.str("hello");
  w.bytes(su::Bytes{1, 2, 3});
  w.str("");
  su::Reader r(w.data());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (su::Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Codec, ReaderPoisonsOnTruncation) {
  su::Writer w;
  w.u32(42);
  su::Bytes data = w.take();
  data.pop_back();
  su::Reader r(data);
  r.u32();
  EXPECT_FALSE(r.ok());
  // Subsequent reads stay poisoned and return zeros.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.done());
}

TEST(Codec, ReaderRejectsOversizedLengthPrefix) {
  su::Writer w;
  w.varint(1'000'000);  // claims 1MB payload
  su::Reader r(w.data());
  auto b = r.bytes();
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(r.ok());
}

TEST(Codec, DoneDetectsTrailingBytes) {
  su::Writer w;
  w.u8(1);
  w.u8(2);
  su::Reader r(w.data());
  r.u8();
  EXPECT_FALSE(r.done());
  r.u8();
  EXPECT_TRUE(r.done());
}

// --- RNG -------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  su::Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  su::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  su::Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  su::Rng rng(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialMean) {
  su::Rng rng(42);
  double sum = 0;
  const double mean = 3.5;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(mean);
  EXPECT_NEAR(sum / 20000.0, mean, 0.15);
}

TEST(Rng, ChanceExtremes) {
  su::Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  su::Rng rng(42);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkStreamsIndependent) {
  su::Rng parent(42);
  su::Rng c1 = parent.fork();
  su::Rng c2 = parent.fork();
  EXPECT_NE(c1.next(), c2.next());
}

// --- Stats -----------------------------------------------------------

TEST(Cdf, BasicQuantiles) {
  su::Cdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_DOUBLE_EQ(cdf.at(50), 0.50);
  EXPECT_DOUBLE_EQ(cdf.at(100), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 50);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100);
}

TEST(Cdf, AtIsInclusive) {
  su::Cdf cdf;
  cdf.add(1.0);
  cdf.add(2.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(1.999), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 1.0);
}

TEST(Cdf, EmptyIsSafe) {
  su::Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
}

TEST(Cdf, FractionAbove) {
  su::Cdf cdf;
  for (int i = 1; i <= 10; ++i) cdf.add(static_cast<double>(i) / 10.0);
  EXPECT_NEAR(cdf.fraction_above(0.8), 0.2, 1e-9);
}

TEST(Histogram2d, CountsAndOccupancy) {
  su::Histogram2d h(0, 0, 10, 10, 10, 10);
  h.add(0.5, 0.5);
  h.add(0.6, 0.6);
  h.add(9.9, 9.9);
  h.add(20, 20);  // out of range, dropped
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.cell(0, 0), 2u);
  EXPECT_EQ(h.cell(9, 9), 1u);
  EXPECT_NEAR(h.occupancy(), 2.0 / 100.0, 1e-9);
}

TEST(Histogram2d, RenderShapeAndOrientation) {
  su::Histogram2d h(0, 0, 4, 2, 4, 2);
  h.add(0.1, 1.9);  // top-left in rendered output
  auto s = h.render();
  // 2 rows of 4 chars + newlines
  ASSERT_EQ(s.size(), 10u);
  EXPECT_NE(s[0], ' ');   // top-left occupied
  EXPECT_EQ(s[5], ' ');   // bottom-left empty
}

// --- Time ------------------------------------------------------------

TEST(Time, UnitHelpers) {
  EXPECT_DOUBLE_EQ(su::minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(su::hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(su::days(1), 86400.0);
}

TEST(Time, DayOfWeekStartsMonday) {
  EXPECT_EQ(su::day_of_week(0.0), 0);
  EXPECT_EQ(su::day_of_week(su::days(4)), 4);   // Friday
  EXPECT_EQ(su::day_of_week(su::days(5)), 5);   // Saturday
  EXPECT_EQ(su::day_of_week(su::days(7)), 0);   // wraps to Monday
}

TEST(Time, Weekend) {
  EXPECT_FALSE(su::is_weekend(su::days(0)));
  EXPECT_FALSE(su::is_weekend(su::days(4.5)));
  EXPECT_TRUE(su::is_weekend(su::days(5.1)));
  EXPECT_TRUE(su::is_weekend(su::days(6.9)));
}

TEST(Time, TimeOfDay) {
  EXPECT_DOUBLE_EQ(su::time_of_day(su::days(2) + su::hours(7.5)), su::hours(7.5));
}

TEST(Time, Formatting) {
  EXPECT_EQ(su::format_time(su::days(1) + su::hours(7) + su::minutes(30)), "d1 07:30");
  EXPECT_EQ(su::format_duration(45.0), "45s");
  EXPECT_EQ(su::format_duration(su::hours(3)), "3.0h");
}
