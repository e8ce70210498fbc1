// Crypto substrate microbenchmarks: the primitives every D2D session and
// bundle transfer pays for (hashing, AEAD, DH, signatures). The JSON context
// records which SHA-256 and ChaCha20 kernels the host dispatched to.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/sc25519.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/x25519.hpp"
#include "util/bytes.hpp"

using namespace sos;

namespace {
util::Bytes make_data(std::size_t n) {
  crypto::Drbg d(util::to_bytes("bench-data"));
  return d.generate(n);
}
}  // namespace

static void BM_Sha256(benchmark::State& state) {
  auto data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536)->Arg(1048576);

// The portable kernel on any CPU: the baseline the hardware kernel's rows
// (BM_Sha256 on a host whose sha256_backend is "sha-ni") are read against.
static void BM_Sha256Portable(benchmark::State& state) {
  auto data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crypto::Sha256 h(crypto::detail::sha256_blocks_portable);
    h.update(data);
    benchmark::DoNotOptimize(h.finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(1024)->Arg(65536)->Arg(1048576);

static void BM_Sha512(benchmark::State& state) {
  auto data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha512::hash(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(65536);

static void BM_AeadSeal(benchmark::State& state) {
  auto data = make_data(static_cast<std::size_t>(state.range(0)));
  std::uint8_t key[32] = {1}, nonce[12] = {2};
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::aead_seal(key, nonce, util::to_bytes("aad"), data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 384 B is the size the workloads actually seal: a session frame around one
// signed bundle.
BENCHMARK(BM_AeadSeal)->Arg(64)->Arg(384)->Arg(1024)->Arg(65536);

static void BM_AeadOpen(benchmark::State& state) {
  auto data = make_data(static_cast<std::size_t>(state.range(0)));
  std::uint8_t key[32] = {1}, nonce[12] = {2};
  auto sealed = crypto::aead_seal(key, nonce, util::to_bytes("aad"), data);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::aead_open(key, nonce, util::to_bytes("aad"), sealed));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadOpen)->Arg(384)->Arg(1024)->Arg(65536);

static void BM_X25519SharedSecret(benchmark::State& state) {
  crypto::Drbg d(util::to_bytes("x"));
  auto a = crypto::x25519_clamp(d.generate_array<32>());
  auto b_pub = crypto::x25519_base(crypto::x25519_clamp(d.generate_array<32>()));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::x25519(a, b_pub));
}
BENCHMARK(BM_X25519SharedSecret);

// Ephemeral key generation: the fixed-base half of every handshake.
static void BM_X25519Base(benchmark::State& state) {
  crypto::Drbg d(util::to_bytes("xb"));
  auto a = crypto::x25519_clamp(d.generate_array<32>());
  for (auto _ : state) benchmark::DoNotOptimize(crypto::x25519_base(a));
}
BENCHMARK(BM_X25519Base);

static void BM_Ed25519Keygen(benchmark::State& state) {
  crypto::Drbg d(util::to_bytes("kg"));
  auto seed = d.generate_array<32>();
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Ed25519Keypair::from_seed(seed));
}
BENCHMARK(BM_Ed25519Keygen);

static void BM_Ed25519Sign(benchmark::State& state) {
  crypto::Drbg d(util::to_bytes("sig"));
  auto kp = crypto::Ed25519Keypair::from_seed(d.generate_array<32>());
  auto msg = make_data(256);
  for (auto _ : state) benchmark::DoNotOptimize(kp.sign(msg));
}
BENCHMARK(BM_Ed25519Sign);

static void BM_Ed25519Verify(benchmark::State& state) {
  crypto::Drbg d(util::to_bytes("ver"));
  auto kp = crypto::Ed25519Keypair::from_seed(d.generate_array<32>());
  auto msg = make_data(256);
  auto sig = kp.sign(msg);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::ed25519_verify(kp.public_key(), msg, sig));
}
BENCHMARK(BM_Ed25519Verify);

// Verification under keys ed25519_verify has not seen recently: cycles
// through four times as many distinct keys as its prepared-key cache holds,
// so nearly every call decodes and prepares its key before verifying.
static void BM_Ed25519VerifyColdKey(benchmark::State& state) {
  struct Signed {
    crypto::EdPublicKey pub;
    crypto::EdSignature sig;
  };
  crypto::Drbg d(util::to_bytes("ver-cold"));
  auto msg = make_data(256);
  std::vector<Signed> signed_msgs;
  for (std::size_t i = 0; i < 4 * crypto::kEdPreparedKeySlots; ++i) {
    auto kp = crypto::Ed25519Keypair::from_seed(d.generate_array<32>());
    signed_msgs.push_back({kp.public_key(), kp.sign(msg)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Signed& s = signed_msgs[i];
    benchmark::DoNotOptimize(crypto::ed25519_verify(s.pub, msg, s.sig));
    i = (i + 1) % signed_msgs.size();
  }
}
BENCHMARK(BM_Ed25519VerifyColdKey);

// One field inversion: one per point encoding (every sign and verify) and
// per X25519 output.
static void BM_FeInvert(benchmark::State& state) {
  crypto::Drbg d(util::to_bytes("inv"));
  auto bytes = d.generate_array<32>();
  crypto::Fe a = crypto::fe_frombytes(bytes.data());
  for (auto _ : state) {
    a = crypto::fe_invert(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FeInvert);

static void BM_ScMul(benchmark::State& state) {
  // Scalar multiply mod L (Karatsuba 256x256 + fold reduction): the scalar
  // work inside every signature.
  crypto::Drbg d(util::to_bytes("scmul"));
  std::uint8_t wide[64];
  auto wa = d.generate(64), wb = d.generate(64);
  std::memcpy(wide, wa.data(), 64);
  crypto::Scalar a = crypto::sc_reduce64(wide);
  std::memcpy(wide, wb.data(), 64);
  crypto::Scalar b = crypto::sc_reduce64(wide);
  for (auto _ : state) {
    a = crypto::sc_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScMul);

static void BM_Hkdf(benchmark::State& state) {
  auto ikm = make_data(32);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crypto::hkdf(util::to_bytes("salt"), ikm, util::to_bytes("info"), 64));
}
BENCHMARK(BM_Hkdf);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("sha256_backend", crypto::sha256_backend());
  benchmark::AddCustomContext("chacha20_backend", crypto::chacha20_backend());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
