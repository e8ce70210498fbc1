#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sos::crypto {

namespace {
constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)
// The x86 SHA extensions. Each sha256rnds2 runs two rounds on the state split
// as ABEF/CDGH, so the kernel reorders the state words on entry and exit —
// once per call, not once per block.
__attribute__((target("sha,sse4.1"))) inline void sha_ni_rounds4(__m128i& abef, __m128i& cdgh,
                                                                 __m128i w, int quad) {
  __m128i wk = _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * quad)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// The next four schedule words from the previous sixteen (w0 oldest):
// W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
__attribute__((target("sha,sse4.1"))) inline __m128i sha_ni_schedule(__m128i w0, __m128i w1,
                                                                     __m128i w2, __m128i w3) {
  __m128i x = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(x, w3);
}

__attribute__((target("sha,sse4.1"))) void sha256_blocks_sha_ni(std::uint32_t state[8],
                                                                const std::uint8_t* blocks,
                                                                std::size_t n) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; n > 0; --n, blocks += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* p = reinterpret_cast<const __m128i*>(blocks);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(p + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(p + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(p + 3), bswap);
    sha_ni_rounds4(abef, cdgh, w0, 0);
    sha_ni_rounds4(abef, cdgh, w1, 1);
    sha_ni_rounds4(abef, cdgh, w2, 2);
    sha_ni_rounds4(abef, cdgh, w3, 3);
    for (int quad = 4; quad < 16; quad += 4) {
      w0 = sha_ni_schedule(w0, w1, w2, w3);
      sha_ni_rounds4(abef, cdgh, w0, quad);
      w1 = sha_ni_schedule(w1, w2, w3, w0);
      sha_ni_rounds4(abef, cdgh, w1, quad + 1);
      w2 = sha_ni_schedule(w2, w3, w0, w1);
      sha_ni_rounds4(abef, cdgh, w2, quad + 2);
      w3 = sha_ni_schedule(w3, w0, w1, w2);
      sha_ni_rounds4(abef, cdgh, w3, quad + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

// SHA (leaf 7 EBX bit 29) for the rounds, SSSE3 and SSE4.1 (leaf 1 ECX bits
// 9 and 19) for the byte shuffle and the state blend.
bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __get_cpuid(1, &eax, &ebx, &ecx, &edx);
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx);
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}
#endif

detail::Sha256Kernel selected_kernel() {
  static const detail::Sha256Kernel kernel = [] {
#if defined(__x86_64__)
    if (cpu_has_sha_ni()) return &sha256_blocks_sha_ni;
#endif
    return &detail::sha256_blocks_portable;
  }();
  return kernel;
}
}  // namespace

void detail::sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                                    std::size_t n) {
  for (const std::uint8_t* block = blocks; n > 0; --n, block += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = util::load32_be(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

const char* sha256_backend() {
  return selected_kernel() == &detail::sha256_blocks_portable ? "portable" : "sha-ni";
}

Sha256::Sha256() : Sha256(selected_kernel()) {}

Sha256::Sha256(detail::Sha256Kernel kernel) : kernel_(kernel) {
  static constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::memcpy(h_, kInit, sizeof(h_));
}

void Sha256::update(util::ByteView data) {
  // An empty view may carry a null data() pointer, and memcpy from null is
  // UB even at size 0.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t need = kBlockSize - buf_len_;
    std::size_t take = std::min(need, data.size());
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == kBlockSize) {
      compress(buf_, 1);
      buf_len_ = 0;
    }
  }
  // Every whole block in one kernel call.
  std::size_t whole = (data.size() - off) / kBlockSize;
  if (whole > 0) {
    compress(data.data() + off, whole);
    off += whole * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Sha256::Digest Sha256::finish() {
  // 0x80, zeros, then the 64-bit bit length: one block if the length fits
  // after the buffered tail, else two.
  std::uint8_t tail[kBlockSize * 2] = {};
  std::memcpy(tail, buf_, buf_len_);
  tail[buf_len_] = 0x80;
  std::size_t blocks = buf_len_ < kBlockSize - 8 ? 1 : 2;
  util::store64_be(tail + blocks * kBlockSize - 8, total_len_ * 8);
  compress(tail, blocks);
  Digest out;
  for (int i = 0; i < 8; ++i) util::store32_be(out.data() + 4 * i, h_[i]);
  return out;
}

Sha256::Digest Sha256::hash(util::ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace sos::crypto
