// Crypto substrate tests: RFC known-answer vectors for every primitive plus
// property sweeps (round trips, tamper rejection, DH commutativity).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/verify_memo.hpp"
#include "crypto/x25519.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sc = sos::crypto;
namespace su = sos::util;

namespace {
su::Bytes unhex(const std::string& s) {
  auto b = su::hex_decode(s);
  EXPECT_TRUE(b.has_value()) << s;
  return b.value_or(su::Bytes{});
}

template <std::size_t N>
std::array<std::uint8_t, N> unhex_array(const std::string& s) {
  return su::to_array<N>(unhex(s));
}

template <typename Arr>
std::string hex(const Arr& a) {
  return su::hex_encode(su::ByteView(a.data(), a.size()));
}

sc::Sha256::Digest portable_sha256(su::ByteView data) {
  sc::Sha256 h(sc::detail::sha256_blocks_portable);
  h.update(data);
  return h.finish();
}

su::Bytes random_bytes(su::Rng& rng, std::size_t n) {
  su::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}
}  // namespace

// --- SHA-256 (FIPS 180-4 / NIST CAVS vectors) -------------------------

struct ShaVector {
  const char* msg;
  const char* digest;
};

class Sha256Vectors : public ::testing::TestWithParam<ShaVector> {};

TEST_P(Sha256Vectors, KnownAnswer) {
  const auto& v = GetParam();
  auto d = sc::Sha256::hash(su::to_bytes(v.msg));
  EXPECT_EQ(hex(d), v.digest);
}

TEST_P(Sha256Vectors, KnownAnswerPortable) {
  const auto& v = GetParam();
  EXPECT_EQ(hex(portable_sha256(su::to_bytes(v.msg))), v.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Nist, Sha256Vectors,
    ::testing::Values(
        ShaVector{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        ShaVector{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        ShaVector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        ShaVector{"The quick brown fox jumps over the lazy dog",
                  "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"}));

TEST(Sha256, MillionA) {
  sc::Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(su::to_bytes(chunk));
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, MillionAPortable) {
  sc::Sha256 h(sc::detail::sha256_blocks_portable);
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(su::to_bytes(chunk));
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Whatever kernel the host dispatches to must agree with the portable
// reference on every padding shape: lengths 0..1024 cover every tail length
// with zero to sixteen whole blocks before it.
TEST(Sha256, DispatchedMatchesPortableEveryLength) {
  su::Rng rng(11);
  su::Bytes msg = random_bytes(rng, 1024);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    su::ByteView v(msg.data(), len);
    ASSERT_EQ(sc::Sha256::hash(v), portable_sha256(v)) << len;
  }
}

// Long inputs fed in pieces: single bytes, one short of a block, exactly a
// block, one past it, and random runs that straddle block boundaries, so the
// dispatched kernel sees both buffered single blocks and multi-block runs.
TEST(Sha256, DispatchedMatchesPortableRandomSplits) {
  su::Rng rng(12);
  constexpr std::size_t kMaxLen = std::size_t{1} << 20;
  const std::size_t fixed_steps[] = {1, 63, 64, 65};
  for (int trial = 0; trial < 12; ++trial) {
    std::size_t len = trial == 0 ? kMaxLen : rng.below(kMaxLen + 1);
    su::Bytes msg = random_bytes(rng, len);
    sc::Sha256 h;
    std::size_t off = 0;
    while (off < len) {
      std::uint64_t pick = rng.below(6);
      std::size_t step = pick < 4 ? fixed_steps[pick]
                                  : 64 * (1 + rng.below(40)) + 1 + rng.below(63);
      step = std::min(step, len - off);
      h.update(su::ByteView(msg.data() + off, step));
      off += step;
    }
    EXPECT_EQ(h.finish(), portable_sha256(msg)) << "trial " << trial << " len " << len;
  }
}

// A broken CPUID check would silently fall back to the portable kernel and
// lose the speed-up; /proc/cpuinfo is an independent account of the CPU.
TEST(Sha256, BackendMatchesCpuinfo) {
  std::ifstream in("/proc/cpuinfo");
  if (!in.good()) GTEST_SKIP() << "no /proc/cpuinfo";
  std::string line;
  bool sha_ni = false, sse4_1 = false, found = false;
  while (!found && std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    found = true;
    std::istringstream words(line.substr(line.find(':') + 1));
    for (std::string w; words >> w;) {
      sha_ni = sha_ni || w == "sha_ni";
      sse4_1 = sse4_1 || w == "sse4_1";
    }
  }
  if (!found) GTEST_SKIP() << "no flags line in /proc/cpuinfo";
  const std::string backend = sc::sha256_backend();
  if (sha_ni && sse4_1) {
    EXPECT_EQ(backend, "sha-ni");
  } else if (!sha_ni) {
    EXPECT_EQ(backend, "portable");
  } else {
    GTEST_SKIP() << "sha_ni without sse4_1: backend " << backend;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  su::Rng rng(3);
  su::Bytes msg(300);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t split = 0; split <= msg.size(); split += 37) {
    sc::Sha256 h;
    h.update(su::ByteView(msg.data(), split));
    h.update(su::ByteView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), sc::Sha256::hash(msg));
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise the padding branch around the 56-byte boundary.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    su::Bytes msg(len, 'x');
    sc::Sha256 a;
    a.update(msg);
    auto one = a.finish();
    sc::Sha256 b;
    for (std::size_t i = 0; i < len; ++i) b.update(su::ByteView(&msg[i], 1));
    EXPECT_EQ(one, b.finish()) << len;
  }
}

// --- SHA-512 -----------------------------------------------------------

class Sha512Vectors : public ::testing::TestWithParam<ShaVector> {};

TEST_P(Sha512Vectors, KnownAnswer) {
  const auto& v = GetParam();
  auto d = sc::Sha512::hash(su::to_bytes(v.msg));
  EXPECT_EQ(hex(d), v.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Nist, Sha512Vectors,
    ::testing::Values(
        ShaVector{"", "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
                      "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
        ShaVector{"abc", "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
                         "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"},
        ShaVector{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                  "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                  "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
                  "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"}));

TEST(Sha512, BoundaryLengths) {
  for (std::size_t len : {111u, 112u, 113u, 127u, 128u, 129u}) {
    su::Bytes msg(len, 'y');
    sc::Sha512 a;
    a.update(msg);
    auto one = a.finish();
    sc::Sha512 b;
    for (std::size_t i = 0; i < len; ++i) b.update(su::ByteView(&msg[i], 1));
    EXPECT_EQ(one, b.finish()) << len;
  }
}

// --- HMAC (RFC 4231) ----------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  su::Bytes key(20, 0x0b);
  auto mac = sc::hmac_sha256(key, su::to_bytes("Hi There"));
  EXPECT_EQ(hex(mac), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  auto mac = sc::hmac_sha256(su::to_bytes("Jefe"), su::to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex(mac), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  su::Bytes key(20, 0xaa);
  su::Bytes data(50, 0xdd);
  auto mac = sc::hmac_sha256(key, data);
  EXPECT_EQ(hex(mac), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashed) {
  // RFC 4231 case 6: 131-byte key exercises the key-hash path.
  su::Bytes key(131, 0xaa);
  auto mac = sc::hmac_sha256(key, su::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex(mac), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- HKDF (RFC 5869) ------------------------------------------------------

TEST(Hkdf, Rfc5869Case1) {
  su::Bytes ikm(22, 0x0b);
  auto salt = unhex("000102030405060708090a0b0c");
  auto info = unhex("f0f1f2f3f4f5f6f7f8f9");
  auto prk = sc::hkdf_extract(salt, ikm);
  EXPECT_EQ(su::hex_encode(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  auto okm = sc::hkdf_expand(prk, info, 42);
  EXPECT_EQ(su::hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3ZeroSaltInfo) {
  su::Bytes ikm(22, 0x0b);
  auto okm = sc::hkdf(su::Bytes{}, ikm, su::Bytes{}, 42);
  EXPECT_EQ(su::hex_encode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, OutputLengthSweep) {
  for (std::size_t len : {1u, 16u, 31u, 32u, 33u, 64u, 100u}) {
    auto okm = sc::hkdf(su::to_bytes("salt"), su::to_bytes("ikm"), su::to_bytes("info"), len);
    EXPECT_EQ(okm.size(), len);
  }
  // Prefix consistency: shorter outputs are prefixes of longer ones.
  auto a = sc::hkdf(su::to_bytes("s"), su::to_bytes("i"), su::to_bytes("x"), 16);
  auto b = sc::hkdf(su::to_bytes("s"), su::to_bytes("i"), su::to_bytes("x"), 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

// --- ChaCha20 (RFC 8439) --------------------------------------------------

namespace {
// RFC 8439 Appendix A texts shared by several vectors.
const char* const kIetfText =
    "Any submission to the IETF intended by the Contributor for publication as all or part "
    "of an IETF Internet-Draft or RFC and any statement made within the context of an IETF "
    "activity is considered an \"IETF Contribution\". Such statements include oral "
    "statements in IETF sessions, as well as written and electronic communications made at "
    "any time or place, which are addressed to";
const char* const kJabberwocky =
    "'Twas brillig, and the slithy toves\nDid gyre and gimble in the wabe:\nAll mimsy were "
    "the borogoves,\nAnd the mome raths outgrabe.";
const char* const kJabberwockyKey =
    "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0";

// `data` XORed with the keystream of the dispatched kernel (chacha20_xor).
su::Bytes dispatched_xor(const std::uint8_t key[32], std::uint32_t counter,
                         const std::uint8_t nonce[12], su::ByteView data) {
  su::Bytes out(data.begin(), data.end());
  sc::chacha20_xor(key, counter, nonce, out.data(), out.size());
  return out;
}

// The same with the keystream of the portable reference.
su::Bytes portable_xor(const std::uint8_t key[32], std::uint32_t counter,
                       const std::uint8_t nonce[12], su::ByteView data) {
  const std::size_t blocks = (data.size() + 63) / 64;
  su::Bytes ks(blocks * 64);
  sc::detail::chacha20_blocks_portable(key, counter, nonce, ks.data(), blocks);
  su::Bytes out(data.begin(), data.end());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] ^= ks[i];
  return out;
}
}  // namespace

struct ChaChaBlockVector {
  const char* key;
  std::uint32_t counter;
  const char* nonce;
  const char* block;
};

class ChaCha20BlockVectors : public ::testing::TestWithParam<ChaChaBlockVector> {};

// Every vector runs through the portable and the dispatched kernel, so each
// is pinned to the RFC directly.
TEST_P(ChaCha20BlockVectors, KnownAnswer) {
  const auto& v = GetParam();
  auto key = unhex_array<32>(v.key);
  auto nonce = unhex_array<12>(v.nonce);
  std::array<std::uint8_t, 64> portable{}, dispatched{};
  sc::detail::chacha20_blocks_portable(key.data(), v.counter, nonce.data(), portable.data(), 1);
  sc::detail::chacha20_blocks(key.data(), v.counter, nonce.data(), dispatched.data(), 1);
  EXPECT_EQ(hex(portable), v.block);
  EXPECT_EQ(hex(dispatched), v.block);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8439, ChaCha20BlockVectors,
    ::testing::Values(
        // §2.3.2
        ChaChaBlockVector{
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", 1,
            "000000090000004a00000000",
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"},
        // Appendix A.1, test vectors #1-#5
        ChaChaBlockVector{
            "0000000000000000000000000000000000000000000000000000000000000000", 0,
            "000000000000000000000000",
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"},
        ChaChaBlockVector{
            "0000000000000000000000000000000000000000000000000000000000000000", 1,
            "000000000000000000000000",
            "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
            "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"},
        ChaChaBlockVector{
            "0000000000000000000000000000000000000000000000000000000000000001", 1,
            "000000000000000000000000",
            "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a"
            "8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0"},
        ChaChaBlockVector{
            "00ff000000000000000000000000000000000000000000000000000000000000", 2,
            "000000000000000000000000",
            "72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca"
            "13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096"},
        ChaChaBlockVector{
            "0000000000000000000000000000000000000000000000000000000000000000", 0,
            "000000000000000000000002",
            "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7"
            "8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d"}));

struct ChaChaEncryptVector {
  const char* key;
  std::uint32_t counter;
  const char* nonce;
  std::string plaintext;
  const char* ciphertext;
};

class ChaCha20EncryptVectors : public ::testing::TestWithParam<ChaChaEncryptVector> {};

TEST_P(ChaCha20EncryptVectors, KnownAnswer) {
  const auto& v = GetParam();
  auto key = unhex_array<32>(v.key);
  auto nonce = unhex_array<12>(v.nonce);
  auto pt = su::to_bytes(v.plaintext);
  EXPECT_EQ(su::hex_encode(dispatched_xor(key.data(), v.counter, nonce.data(), pt)), v.ciphertext);
  EXPECT_EQ(su::hex_encode(portable_xor(key.data(), v.counter, nonce.data(), pt)), v.ciphertext);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8439, ChaCha20EncryptVectors,
    ::testing::Values(
        // §2.4.2
        ChaChaEncryptVector{
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", 1,
            "000000000000004a00000000",
            "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for "
            "the future, sunscreen would be it.",
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d"},
        // Appendix A.2, test vectors #1-#3
        ChaChaEncryptVector{
            "0000000000000000000000000000000000000000000000000000000000000000", 0,
            "000000000000000000000000", std::string(64, '\0'),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"},
        ChaChaEncryptVector{
            "0000000000000000000000000000000000000000000000000000000000000001", 1,
            "000000000000000000000002", kIetfText,
            "a3fbf07df3fa2fde4f376ca23e82737041605d9f4f4f57bd8cff2c1d4b7955ec"
            "2a97948bd3722915c8f3d337f7d370050e9e96d647b7c39f56e031ca5eb6250d"
            "4042e02785ececfa4b4bb5e8ead0440e20b6e8db09d881a7c6132f420e527950"
            "42bdfa7773d8a9051447b3291ce1411c680465552aa6c405b7764d5e87bea85a"
            "d00f8449ed8f72d0d662ab052691ca66424bc86d2df80ea41f43abf937d3259d"
            "c4b2d0dfb48a6c9139ddd7f76966e928e635553ba76c5c879d7b35d49eb2e62b"
            "0871cdac638939e25e8a1e0ef9d5280fa8ca328b351c3c765989cbcf3daa8b6c"
            "cc3aaf9f3979c92b3720fc88dc95ed84a1be059c6499b9fda236e7e818b04b0b"
            "c39c1e876b193bfe5569753f88128cc08aaa9b63d1a16f80ef2554d7189c411f"
            "5869ca52c5b83fa36ff216b9c1d30062bebcfd2dc5bce0911934fda79a86f6e6"
            "98ced759c3ff9b6477338f3da4f9cd8514ea9982ccafb341b2384dd902f3d1ab"
            "7ac61dd29c6f21ba5b862f3730e37cfdc4fd806c22f221"},
        ChaChaEncryptVector{
            kJabberwockyKey, 42, "000000000000000000000002", kJabberwocky,
            "62e6347f95ed87a45ffae7426f27a1df5fb69110044c0d73118effa95b01e5cf"
            "166d3df2d721caf9b21e5fb14c616871fd84c54f9d65b283196c7fe4f60553eb"
            "f39c6402c42234e32a356b3e764312a61a5532055716ead6962568f87d3f3f77"
            "04c6a8d1bcd1bf4d50d6154b6da731b187b58dfd728afa36757a797ac188d1"}));

TEST(ChaCha20, XorIsInvolution) {
  auto key = unhex_array<32>(
      "1f1e1d1c1b1a191817161514131211100f0e0d0c0b0a09080706050403020100");
  auto nonce = unhex_array<12>("000000000000000000000002");
  su::Bytes msg = su::to_bytes("attack at dawn");
  auto ct = dispatched_xor(key.data(), 7, nonce.data(), msg);
  auto pt = dispatched_xor(key.data(), 7, nonce.data(), ct);
  EXPECT_EQ(pt, msg);
  EXPECT_NE(ct, msg);
}

// Every length 0..1024 covers every tail length with zero to sixteen whole
// blocks before it, and so every split of a message into full eight-block
// passes and a partial one.
TEST(ChaCha20, DispatchedMatchesPortableEveryLength) {
  su::Rng rng(21);
  su::Bytes msg = random_bytes(rng, 1024);
  auto key = unhex_array<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = unhex_array<12>("000000090000004a00000000");
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    su::ByteView v(msg.data(), len);
    ASSERT_EQ(dispatched_xor(key.data(), 1, nonce.data(), v),
              portable_xor(key.data(), 1, nonce.data(), v))
        << len;
  }
}

// The 32-bit block counter wraps to 0 without touching the nonce (RFC 8439
// §2.3); the eight lanes of one pass must wrap individually.
TEST(ChaCha20, DispatchedMatchesPortableAcrossCounterWrap) {
  su::Rng rng(22);
  auto key = su::to_array<32>(random_bytes(rng, 32));
  auto nonce = su::to_array<12>(random_bytes(rng, 12));
  for (std::uint32_t back = 0; back <= 17; ++back) {
    const std::uint32_t counter = 0u - back;
    for (std::size_t blocks : {1u, 7u, 8u, 9u, 20u}) {
      su::Bytes portable(blocks * 64), dispatched(blocks * 64);
      sc::detail::chacha20_blocks_portable(key.data(), counter, nonce.data(), portable.data(),
                                           blocks);
      sc::detail::chacha20_blocks(key.data(), counter, nonce.data(), dispatched.data(), blocks);
      ASSERT_EQ(dispatched, portable) << "counter " << counter << " blocks " << blocks;
    }
  }
  // Block 2^32 - 1 followed by block 0 of the same nonce.
  std::array<std::uint8_t, 64> last{}, first{};
  sc::detail::chacha20_blocks_portable(key.data(), 0xffffffffu, nonce.data(), last.data(), 1);
  sc::detail::chacha20_blocks_portable(key.data(), 0, nonce.data(), first.data(), 1);
  su::Bytes both = dispatched_xor(key.data(), 0xffffffffu, nonce.data(), su::Bytes(128, 0));
  EXPECT_EQ(su::hex_encode(both), hex(last) + hex(first));
}

// A long message encrypted in random block-aligned pieces, each with the
// counter advanced past the previous piece, equals the one-shot keystream.
TEST(ChaCha20, DispatchedMatchesPortableRandomSplits) {
  su::Rng rng(23);
  for (int trial = 0; trial < 24; ++trial) {
    auto key = su::to_array<32>(random_bytes(rng, 32));
    auto nonce = su::to_array<12>(random_bytes(rng, 12));
    const std::uint32_t start = trial % 2 == 0 ? static_cast<std::uint32_t>(rng.next())
                                               : 0u - static_cast<std::uint32_t>(rng.below(40));
    su::Bytes msg = random_bytes(rng, rng.below(8192) + 1);
    su::Bytes pieces = msg;
    std::size_t off = 0;
    std::uint32_t counter = start;
    while (off < pieces.size()) {
      std::size_t blocks = 1 + rng.below(20);
      std::size_t take = std::min(blocks * 64, pieces.size() - off);
      sc::chacha20_xor(key.data(), counter, nonce.data(), pieces.data() + off, take);
      counter += static_cast<std::uint32_t>(blocks);
      off += take;
    }
    EXPECT_EQ(pieces, portable_xor(key.data(), start, nonce.data(), msg)) << "trial " << trial;
  }
}

// A broken CPUID check would silently fall back to the portable kernel and
// lose the speed-up; /proc/cpuinfo is an independent account of the CPU.
TEST(ChaCha20, BackendMatchesCpuinfo) {
  std::ifstream in("/proc/cpuinfo");
  if (!in.good()) GTEST_SKIP() << "no /proc/cpuinfo";
  std::string line;
  bool avx2 = false, found = false;
  while (!found && std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    found = true;
    std::istringstream words(line.substr(line.find(':') + 1));
    for (std::string w; words >> w;) avx2 = avx2 || w == "avx2";
  }
  if (!found) GTEST_SKIP() << "no flags line in /proc/cpuinfo";
  EXPECT_EQ(std::string(sc::chacha20_backend()), avx2 ? "avx2" : "portable");
}

// --- Poly1305 (RFC 8439) ----------------------------------------------------

struct PolyVector {
  const char* key;
  su::Bytes msg;
  const char* tag;
};

class Poly1305Vectors : public ::testing::TestWithParam<PolyVector> {};

TEST_P(Poly1305Vectors, KnownAnswer) {
  const auto& v = GetParam();
  auto key = unhex_array<32>(v.key);
  sc::Poly1305 whole(key.data());
  whole.update(v.msg);
  EXPECT_EQ(hex(whole.finish()), v.tag);
  // The same input fed one byte at a time.
  sc::Poly1305 p(key.data());
  for (std::uint8_t b : v.msg) p.update(su::ByteView(&b, 1));
  EXPECT_EQ(hex(p.finish()), v.tag);
}

// §2.5.2 and Appendix A.3 #1-#11. Vectors #5-#11 are the carry and final
// reduction edge cases: h landing on or just past p, and the last carries.
// A last, hand-computed vector pins the top-limb carry of the 64-bit limbs.
INSTANTIATE_TEST_SUITE_P(
    Rfc8439, Poly1305Vectors,
    ::testing::Values(
        PolyVector{"85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
                   su::to_bytes("Cryptographic Forum Research Group"),
                   "a8061dc1305136c6c22b8baf0c0127a9"},
        PolyVector{"0000000000000000000000000000000000000000000000000000000000000000",
                   su::Bytes(64, 0), "00000000000000000000000000000000"},
        PolyVector{"0000000000000000000000000000000036e5f6b5c5e06070f0efca96227a863e",
                   su::to_bytes(kIetfText), "36e5f6b5c5e06070f0efca96227a863e"},
        PolyVector{"36e5f6b5c5e06070f0efca96227a863e00000000000000000000000000000000",
                   su::to_bytes(kIetfText), "f3477e7cd95417af89a6b8794c310cf0"},
        PolyVector{kJabberwockyKey, su::to_bytes(kJabberwocky),
                   "4541669a7eaaee61e708dc7cbcc5eb62"},
        PolyVector{"0200000000000000000000000000000000000000000000000000000000000000",
                   unhex("ffffffffffffffffffffffffffffffff"),
                   "03000000000000000000000000000000"},
        PolyVector{"02000000000000000000000000000000ffffffffffffffffffffffffffffffff",
                   unhex("02000000000000000000000000000000"),
                   "03000000000000000000000000000000"},
        PolyVector{"0100000000000000000000000000000000000000000000000000000000000000",
                   unhex("ffffffffffffffffffffffffffffffff"
                         "f0ffffffffffffffffffffffffffffff"
                         "11000000000000000000000000000000"),
                   "05000000000000000000000000000000"},
        PolyVector{"0100000000000000000000000000000000000000000000000000000000000000",
                   unhex("ffffffffffffffffffffffffffffffff"
                         "fbfefefefefefefefefefefefefefefe"
                         "01010101010101010101010101010101"),
                   "00000000000000000000000000000000"},
        PolyVector{"0200000000000000000000000000000000000000000000000000000000000000",
                   unhex("fdffffffffffffffffffffffffffffff"),
                   "faffffffffffffffffffffffffffffff"},
        PolyVector{"0100000000000000040000000000000000000000000000000000000000000000",
                   unhex("e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000"
                         "0000000000000000000000000000000001000000000000000000000000000000"),
                   "14000000000000005500000000000000"},
        PolyVector{"0100000000000000040000000000000000000000000000000000000000000000",
                   unhex("e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000"
                         "00000000000000000000000000000000"),
                   "13000000000000000000000000000000"},
        // Not from the RFC: r = 1 and four all-ones blocks, h = 4 (2^129 - 1)
        // = 6 mod p. The third block's fold carries out of both 64-bit limbs
        // into the top one, a carry random inputs practically never reach.
        PolyVector{"0100000000000000000000000000000000000000000000000000000000000000",
                   su::Bytes(64, 0xff), "06000000000000000000000000000000"}));

// Random messages fed in random pieces (including empty ones and runs that
// straddle the 16-byte buffer) equal the tag of one whole-message update.
TEST(Poly1305, RandomSplitsMatchOneShot) {
  su::Rng rng(9);
  for (int trial = 0; trial < 64; ++trial) {
    auto key = su::to_array<32>(random_bytes(rng, 32));
    su::Bytes msg = random_bytes(rng, rng.below(600));
    sc::Poly1305 whole(key.data());
    whole.update(msg);
    auto one = whole.finish();
    sc::Poly1305 p(key.data());
    std::size_t off = 0;
    while (off < msg.size()) {
      std::size_t step = std::min<std::size_t>(rng.below(40), msg.size() - off);
      p.update(su::ByteView(msg.data() + off, step));
      off += step;
    }
    EXPECT_EQ(one, p.finish()) << "trial " << trial;
  }
}

// --- AEAD (RFC 8439 §2.8.2) ---------------------------------------------------

TEST(Aead, Rfc8439Vector) {
  auto key = unhex_array<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = unhex_array<12>("070000004041424344454647");
  auto aad = unhex("50515253c0c1c2c3c4c5c6c7");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  auto sealed = sc::aead_seal(key.data(), nonce.data(), aad, su::to_bytes(pt));
  EXPECT_EQ(su::hex_encode(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = sc::aead_open(key.data(), nonce.data(), aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(su::to_string(*opened), pt);
}

// Appendix A.5: decryption of a 265-byte message with a 12-byte AAD, the
// longest vector, spanning five eight-block passes' worth of boundaries.
TEST(Aead, Rfc8439DecryptionVector) {
  auto key = unhex_array<32>(kJabberwockyKey);
  auto nonce = unhex_array<12>("000000000102030405060708");
  auto aad = unhex("f33388860000000000004e91");
  auto sealed = unhex(
      "64a0861575861af460f062c79be643bd5e805cfd345cf389f108670ac76c8cb2"
      "4c6cfc18755d43eea09ee94e382d26b0bdb7b73c321b0100d4f03b7f355894cf"
      "332f830e710b97ce98c8a84abd0b948114ad176e008d33bd60f982b1ff37c855"
      "9797a06ef4f0ef61c186324e2b3506383606907b6a7c02b0f9f6157b53c867e4"
      "b9166c767b804d46a59b5216cde7a4e99040c5a40433225ee282a1b0a06c523e"
      "af4534d7f83fa1155b0047718cbc546a0d072b04b3564eea1b422273f548271a"
      "0bb2316053fa76991955ebd63159434ecebb4e466dae5a1073a6727627097a10"
      "49e617d91d361094fa68f0ff77987130305beaba2eda04df997b714d6c6f2c29"
      "a6ad5cb4022b02709b"
      "eead9d67890cbb22392336fea1851f38");
  auto opened = sc::aead_open(key.data(), nonce.data(), aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(su::to_string(*opened),
            "Internet-Drafts are draft documents valid for a maximum of six months and may be "
            "updated, replaced, or obsoleted by other documents at any time. It is "
            "inappropriate to use Internet-Drafts as reference material or to cite them other "
            "than as /\xe2\x80\x9cwork in progress./\xe2\x80\x9d");
  EXPECT_EQ(sc::aead_seal(key.data(), nonce.data(), aad, *opened), sealed);
}

// The in-place forms produce the same bytes as the copying ones behind an
// untouched header, and a failed open leaves its buffer as it was.
TEST(Aead, InPlaceMatchesCopying) {
  su::Rng rng(31);
  std::uint8_t key[32], nonce[12];
  for (auto& k : key) k = static_cast<std::uint8_t>(rng.next());
  for (auto& n : nonce) n = static_cast<std::uint8_t>(rng.next());
  const su::Bytes aad = su::to_bytes("hdr");
  for (std::size_t len : {0u, 1u, 63u, 64u, 447u, 448u, 449u, 1000u}) {
    su::Bytes pt = random_bytes(rng, len);
    su::Bytes buf = {0xaa, 0xbb};
    su::append(buf, pt);
    sc::aead_seal_in_place(key, nonce, aad, buf, 2);
    ASSERT_EQ(buf.size(), 2 + len + sc::kAeadTagSize);
    EXPECT_EQ(su::Bytes(buf.begin() + 2, buf.end()), sc::aead_seal(key, nonce, aad, pt)) << len;

    su::Bytes tampered = buf;
    tampered.at(tampered.size() - 1) ^= 1;
    const su::Bytes before = tampered;
    EXPECT_FALSE(sc::aead_open_in_place(key, nonce, aad, tampered, 2));
    EXPECT_EQ(tampered, before);

    ASSERT_TRUE(sc::aead_open_in_place(key, nonce, aad, buf, 2)) << len;
    EXPECT_EQ(buf[0], 0xaa);
    EXPECT_EQ(buf[1], 0xbb);
    EXPECT_EQ(su::Bytes(buf.begin() + 2, buf.end()), pt);
  }
  su::Bytes short_buf(sc::kAeadTagSize - 1, 0);
  EXPECT_FALSE(sc::aead_open_in_place(key, nonce, aad, short_buf, 0));
  su::Bytes header_only = {1, 2, 3};
  EXPECT_FALSE(sc::aead_open_in_place(key, nonce, aad, header_only, 4));
}

TEST(Aead, RejectsTamperedCiphertextEveryByte) {
  auto key = unhex_array<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = unhex_array<12>("070000004041424344454647");
  auto sealed = sc::aead_seal(key.data(), nonce.data(), su::Bytes{}, su::to_bytes("secret"));
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    auto bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(sc::aead_open(key.data(), nonce.data(), su::Bytes{}, bad).has_value())
        << "byte " << i;
  }
}

TEST(Aead, RejectsWrongAad) {
  auto key = unhex_array<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = unhex_array<12>("070000004041424344454647");
  auto sealed = sc::aead_seal(key.data(), nonce.data(), su::to_bytes("aad-a"), su::to_bytes("m"));
  EXPECT_FALSE(sc::aead_open(key.data(), nonce.data(), su::to_bytes("aad-b"), sealed).has_value());
}

TEST(Aead, RejectsTooShort) {
  auto key = unhex_array<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = unhex_array<12>("070000004041424344454647");
  su::Bytes tiny(10, 0);
  EXPECT_FALSE(sc::aead_open(key.data(), nonce.data(), su::Bytes{}, tiny).has_value());
}

class AeadRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadRoundTrip, VariousLengths) {
  std::size_t len = GetParam();
  su::Rng rng(len + 1);
  su::Bytes pt(len);
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
  std::uint8_t key[32], nonce[12];
  for (auto& k : key) k = static_cast<std::uint8_t>(rng.next());
  for (auto& n : nonce) n = static_cast<std::uint8_t>(rng.next());
  auto sealed = sc::aead_seal(key, nonce, su::to_bytes("hdr"), pt);
  EXPECT_EQ(sealed.size(), len + sc::kAeadTagSize);
  auto opened = sc::aead_open(key, nonce, su::to_bytes("hdr"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

INSTANTIATE_TEST_SUITE_P(Lengths, AeadRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 447, 448, 449, 1000,
                                           65536));

// --- X25519 (RFC 7748) ---------------------------------------------------------

TEST(X25519, Rfc7748Vector1) {
  auto scalar = unhex_array<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point = unhex_array<32>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  auto out = sc::x25519(scalar, point);
  EXPECT_EQ(hex(out), "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  auto scalar = unhex_array<32>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point = unhex_array<32>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  auto out = sc::x25519(scalar, point);
  EXPECT_EQ(hex(out), "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  auto alice_priv = unhex_array<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto bob_priv = unhex_array<32>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  auto alice_pub = sc::x25519_base(alice_priv);
  auto bob_pub = sc::x25519_base(bob_priv);
  EXPECT_EQ(hex(alice_pub), "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex(bob_pub), "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  auto k1 = sc::x25519(alice_priv, bob_pub);
  auto k2 = sc::x25519(bob_priv, alice_pub);
  EXPECT_EQ(hex(k1), "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
  EXPECT_EQ(k1, k2);
}

class X25519Commute : public ::testing::TestWithParam<int> {};

TEST_P(X25519Commute, SharedSecretsAgree) {
  sc::Drbg drbg(su::to_bytes("x25519-commute-" + std::to_string(GetParam())));
  auto a = drbg.generate_array<32>();
  auto b = drbg.generate_array<32>();
  auto ka = sc::x25519(a, sc::x25519_base(b));
  auto kb = sc::x25519(b, sc::x25519_base(a));
  EXPECT_EQ(ka, kb);
  // Shared secret must be non-trivial.
  sc::X25519Key zero{};
  EXPECT_NE(ka, zero);
}

INSTANTIATE_TEST_SUITE_P(Seeds, X25519Commute, ::testing::Range(0, 8));

// §5.2: k and u both start at the base point; each step sets
// (k, u) = (X25519(k, u), k).
TEST(X25519, Rfc7748Iterated) {
  sc::X25519Key k{9}, u{9};
  for (int i = 1; i <= 1000; ++i) {
    sc::X25519Key next = sc::x25519(k, u);
    u = k;
    k = next;
    if (i == 1) {
      EXPECT_EQ(hex(k), "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
    }
  }
  EXPECT_EQ(hex(k), "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

// The fixed-base path (Edwards table, then u = (Z+Y)/(Z-Y)) against the
// ladder on the base point: random scalars plus scalars whose clamping
// lands on the extremes (all bits clear or set below bit 254).
TEST(X25519, BaseMatchesLadderOnBasePoint) {
  const sc::X25519Key nine{9};
  std::vector<sc::X25519Key> scalars;
  sc::X25519Key edge{};
  scalars.push_back(edge);
  edge.fill(0xff);
  scalars.push_back(edge);
  edge = {};
  edge[0] = 8;
  scalars.push_back(edge);
  edge = {};
  edge[31] = 0x40;
  edge[0] = 0xf8;
  scalars.push_back(edge);
  sc::Drbg drbg(su::to_bytes("x25519-base-vs-ladder"));
  for (int i = 0; i < 256; ++i) scalars.push_back(drbg.generate_array<32>());
  for (const auto& k : scalars) ASSERT_EQ(sc::x25519_base(k), sc::x25519(k, nine)) << hex(k);
}

// u is taken mod 2^255 (the top bit is ignored) and then mod p, so a
// non-canonical encoding names the same point as its canonical one.
TEST(X25519, NonCanonicalPointsActLikeTheirReduction) {
  sc::Drbg drbg(su::to_bytes("x25519-noncanonical"));
  for (int i = 0; i < 16; ++i) {
    auto k = drbg.generate_array<32>();
    auto u = drbg.generate_array<32>();
    u[31] &= 0x7f;
    auto high = u;
    high[31] |= 0x80;
    EXPECT_EQ(sc::x25519(k, high), sc::x25519(k, u));
  }
  // p + 9 and p + 9 with the top bit set both mean u = 9.
  auto p_plus_9 = unhex_array<32>(
      "f6ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  auto p_plus_9_high = p_plus_9;
  p_plus_9_high[31] |= 0x80;
  auto k = drbg.generate_array<32>();
  EXPECT_EQ(sc::x25519(k, p_plus_9), sc::x25519_base(k));
  EXPECT_EQ(sc::x25519(k, p_plus_9_high), sc::x25519_base(k));
}

// RFC 7748 §6.1: every point of order 1, 2, 4 or 8 sends any clamped scalar
// to the all-zero secret, which x25519_is_zero must flag.
TEST(X25519, LowOrderPointsGiveZeroSecret) {
  const char* const low_order[] = {
      "0000000000000000000000000000000000000000000000000000000000000000",  // 0
      "0100000000000000000000000000000000000000000000000000000000000000",  // 1
      "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",  // order 8
      "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",  // order 8
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p - 1
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p
      "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p + 1
  };
  sc::Drbg drbg(su::to_bytes("x25519-low-order"));
  for (const char* u_hex : low_order) {
    auto u = unhex_array<32>(u_hex);
    for (int i = 0; i < 4; ++i) {
      auto secret = sc::x25519(drbg.generate_array<32>(), u);
      EXPECT_TRUE(sc::x25519_is_zero(secret)) << u_hex;
    }
  }
  sc::X25519Key one_bit{};
  one_bit[31] = 0x01;
  EXPECT_FALSE(sc::x25519_is_zero(one_bit));
  EXPECT_FALSE(sc::x25519_is_zero(sc::x25519_base(drbg.generate_array<32>())));
}

// --- Ed25519 (RFC 8032 §7.1) ------------------------------------------------------

struct EdVector {
  const char* seed;
  const char* pub;
  const char* msg_hex;
  const char* sig;
};

class Ed25519Vectors : public ::testing::TestWithParam<EdVector> {};

TEST_P(Ed25519Vectors, KnownAnswer) {
  const auto& v = GetParam();
  auto kp = sc::Ed25519Keypair::from_seed(unhex_array<32>(v.seed));
  EXPECT_EQ(hex(kp.public_key()), v.pub);
  auto msg = unhex(v.msg_hex);
  auto sig = kp.sign(msg);
  EXPECT_EQ(hex(sig), v.sig);
  EXPECT_TRUE(sc::ed25519_verify(kp.public_key(), msg, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8032, Ed25519Vectors,
    ::testing::Values(
        EdVector{"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
                 "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
                 "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
                 "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        EdVector{"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
                 "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
                 "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
                 "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        EdVector{"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
                 "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
                 "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
                 "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"}));

TEST(Ed25519, RejectsTamperedMessage) {
  auto kp = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  auto msg = su::to_bytes("hello world");
  auto sig = kp.sign(msg);
  auto bad = msg;
  bad[0] ^= 1;
  EXPECT_FALSE(sc::ed25519_verify(kp.public_key(), bad, sig));
}

TEST(Ed25519, RejectsTamperedSignatureEveryByte) {
  auto kp = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  auto msg = su::to_bytes("x");
  auto sig = kp.sign(msg);
  for (std::size_t i = 0; i < sig.size(); i += 7) {
    auto bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(sc::ed25519_verify(kp.public_key(), msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519, RejectsWrongKey) {
  auto kp1 = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  auto kp2 = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  auto msg = su::to_bytes("message");
  EXPECT_FALSE(sc::ed25519_verify(kp2.public_key(), msg, kp1.sign(msg)));
}

TEST(Ed25519, RejectsNonCanonicalScalar) {
  auto kp = sc::Ed25519Keypair::from_seed(
      unhex_array<32>("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  auto msg = su::to_bytes("m");
  auto sig = kp.sign(msg);
  // Force S >= L by setting the top bytes high.
  auto bad = sig;
  for (int i = 32; i < 64; ++i) bad[i] = 0xFF;
  EXPECT_FALSE(sc::ed25519_verify(kp.public_key(), msg, bad));
}

class Ed25519RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519RoundTrip, SignVerifyRandomKeysAndMessages) {
  sc::Drbg drbg(su::to_bytes("ed25519-rt-" + std::to_string(GetParam())));
  auto kp = sc::Ed25519Keypair::from_seed(drbg.generate_array<32>());
  auto msg = drbg.generate(1 + GetParam() * 17);
  auto sig = kp.sign(msg);
  EXPECT_TRUE(sc::ed25519_verify(kp.public_key(), msg, sig));
  // Deterministic signatures: re-signing gives the identical signature.
  EXPECT_EQ(sig, kp.sign(msg));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ed25519RoundTrip, ::testing::Range(0, 10));

// --- VerifyMemo (sweep-wide signature-verdict memo) -------------------------------

namespace {
struct MemoItem {
  sc::EdPublicKey pub;
  su::Bytes msg;
  sc::EdSignature sig;
  bool valid;  // ground truth
};

/// Mixed workload: `n` triples, even = genuine signature, odd = forged
/// (payload tampered after signing, so the verdict must be false).
std::vector<MemoItem> memo_items(std::size_t n, const std::string& label) {
  std::vector<MemoItem> items;
  sc::Drbg drbg(su::to_bytes("memo-items-" + label));
  for (std::size_t i = 0; i < n; ++i) {
    auto kp = sc::Ed25519Keypair::from_seed(drbg.generate_array<32>());
    MemoItem item;
    item.pub = kp.public_key();
    item.msg = drbg.generate(24 + i % 48);
    item.sig = kp.sign(item.msg);
    item.valid = (i % 2) == 0;
    if (!item.valid) item.msg[0] ^= 0x5a;  // forge: signature no longer matches
    items.push_back(std::move(item));
  }
  return items;
}
}  // namespace

TEST(VerifyMemo, ConcurrentHammeringKeepsVerdictsStable) {
  // Eight threads hammer one memo with overlapping triple sets in different
  // orders — the sweep-wide sharing pattern, where every variant of a cell
  // races on the same memo. Every verdict must match ground truth on every
  // call, and a forged signature must never memoize to true.
  sc::VerifyMemo memo;
  const auto items = memo_items(24, "concurrent");
  constexpr int kThreads = 8;
  constexpr int kRounds = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < items.size(); ++i) {
          // Distinct, overlapping traversal order per thread.
          const MemoItem& item = items[(i * (t + 1) + round) % items.size()];
          if (memo.verify(item.pub, item.msg, item.sig) != item.valid) ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(memo.size(), items.size());  // each triple memoized exactly once
  for (const auto& item : items) {
    auto verdict = memo.lookup(sc::VerifyMemo::key_of(item.pub, item.msg, item.sig));
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(*verdict, item.valid);  // forged entries memoized as false, never true
  }
}

TEST(VerifyMemo, CapacityBoundsGrowthWithoutChangingVerdicts) {
  // A sweep-wide memo lives as long as its cell and sees every variant's
  // triples: past its capacity it must stop growing, while verdicts —
  // memoized or recomputed — stay correct.
  sc::VerifyMemo memo(32);
  EXPECT_EQ(memo.capacity(), 32u);
  const auto items = memo_items(96, "capacity");
  for (const auto& item : items) {
    EXPECT_EQ(memo.verify(item.pub, item.msg, item.sig), item.valid);
  }
  EXPECT_LE(memo.size(), memo.capacity());
  EXPECT_GT(memo.size(), 0u);
  // Re-verifying the same set recomputes the evicted ones but never lies.
  for (const auto& item : items) {
    EXPECT_EQ(memo.verify(item.pub, item.msg, item.sig), item.valid);
  }
  EXPECT_LE(memo.size(), memo.capacity());
}

TEST(Ed25519, PreparedKeyCacheConcurrentHammering) {
  // Four threads verify one shared mix of genuine and forged triples under
  // more distinct keys than the prepared-key cache has slots, each in its
  // own order: keys are prepared, evicted and prepared again while other
  // threads read the same slots, and every verdict must match ground truth.
  const auto items = memo_items(sc::kEdPreparedKeySlots + 255, "prepared-cache");
  constexpr std::size_t kStrides[] = {1, 7919, 104729, 1299709};  // primes: full cycles
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t stride : kStrides) {
    threads.emplace_back([&, stride] {
      for (std::size_t i = 0; i < items.size(); ++i) {
        const MemoItem& item = items[(i * stride + stride / 2) % items.size()];
        if (sc::ed25519_verify(item.pub, item.msg, item.sig) != item.valid) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- DRBG ------------------------------------------------------------------------

// The generator's byte stream is the ChaCha20 keystream under its key with
// the call counter as nonce; it must not move when the keystream kernel
// changes, or every seeded simulation changes with it.
TEST(Drbg, StreamIsPortableKeystream) {
  sc::Drbg drbg(su::to_bytes("drbg-stream"));
  auto key = sc::Sha256::hash(su::to_bytes("drbg-stream"));
  for (std::uint64_t call = 0; call < 4; ++call) {
    const std::size_t len = 17 + 300 * call;
    su::Bytes out = drbg.generate(len);
    std::uint8_t nonce[12] = {0};
    su::store64_le(nonce, call);
    EXPECT_EQ(out, portable_xor(key.data(), 0, nonce, su::Bytes(len, 0))) << call;
  }
}

TEST(Drbg, DeterministicForSameSeed) {
  sc::Drbg a(su::to_bytes("seed"));
  sc::Drbg b(su::to_bytes("seed"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(Drbg, StreamsAdvance) {
  sc::Drbg a(su::to_bytes("seed"));
  auto first = a.generate(32);
  auto second = a.generate(32);
  EXPECT_NE(first, second);
}

TEST(Drbg, DifferentSeedsDiffer) {
  sc::Drbg a(su::to_bytes("seed-a"));
  sc::Drbg b(su::to_bytes("seed-b"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

