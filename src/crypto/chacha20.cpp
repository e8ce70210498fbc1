#include "crypto/chacha20.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sos::crypto {

namespace {
using ChaCha20Kernel = void (*)(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                                const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* out,
                                std::size_t n);

inline std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b;
  d = rotl(d ^ a, 16);
  c += d;
  b = rotl(b ^ c, 12);
  a += b;
  d = rotl(d ^ a, 8);
  c += d;
  b = rotl(b ^ c, 7);
}

// Constants, key, counter, nonce: the RFC 8439 §2.3 input block.
void init_state(std::uint32_t state[16], const std::uint8_t key[kChaChaKeySize],
                std::uint32_t counter, const std::uint8_t nonce[kChaChaNonceSize]) {
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = util::load32_le(key + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = util::load32_le(nonce + 4 * i);
}

#if defined(__x86_64__)
// Eight blocks per pass: vector x[i] holds word i of blocks counter..counter+7,
// one block per 32-bit lane, so the rounds are the scalar rounds on eight
// lanes and only the final store needs a transpose.
#define SOS_AVX2 __attribute__((target("avx2")))

template <int N>
SOS_AVX2 inline __m256i rotl_lanes(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, N), _mm256_srli_epi32(x, 32 - N));
}

// Rotations by 16 and 8 move whole bytes, so one byte shuffle does each.
SOS_AVX2 inline void quarter_round_lanes(__m256i& a, __m256i& b, __m256i& c, __m256i& d,
                                         __m256i rot16, __m256i rot8) {
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = rotl_lanes<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = rotl_lanes<7>(_mm256_xor_si256(b, c));
}

// 4x4 transpose of 32-bit words within each 128-bit half: on return a, b, c,
// d hold these four words of blocks 0, 1, 2, 3 (low half) and 4, 5, 6, 7
// (high half).
SOS_AVX2 inline void transpose_lanes(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  const __m256i ab_lo = _mm256_unpacklo_epi32(a, b);
  const __m256i ab_hi = _mm256_unpackhi_epi32(a, b);
  const __m256i cd_lo = _mm256_unpacklo_epi32(c, d);
  const __m256i cd_hi = _mm256_unpackhi_epi32(c, d);
  a = _mm256_unpacklo_epi64(ab_lo, cd_lo);
  b = _mm256_unpackhi_epi64(ab_lo, cd_lo);
  c = _mm256_unpacklo_epi64(ab_hi, cd_hi);
  d = _mm256_unpackhi_epi64(ab_hi, cd_hi);
}

SOS_AVX2 void chacha20_blocks_avx2(const std::uint8_t key[kChaChaKeySize],
                                   std::uint32_t counter,
                                   const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* out,
                                   std::size_t n) {
  std::uint32_t state[16];
  init_state(state, key, counter, nonce);
  const __m256i rot16 = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                                         2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                                        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::uint8_t tail[kChaChaWideBlocks * kChaChaBlockSize];
  while (n > 0) {
    __m256i in[16], x[16];
    for (int i = 0; i < 16; ++i) in[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
    // Lane j runs block counter + j; the add wraps mod 2^32 like the scalar
    // counter does.
    in[12] = _mm256_add_epi32(in[12], lane);
    for (int i = 0; i < 16; ++i) x[i] = in[i];
    for (int round = 0; round < 10; ++round) {
      quarter_round_lanes(x[0], x[4], x[8], x[12], rot16, rot8);
      quarter_round_lanes(x[1], x[5], x[9], x[13], rot16, rot8);
      quarter_round_lanes(x[2], x[6], x[10], x[14], rot16, rot8);
      quarter_round_lanes(x[3], x[7], x[11], x[15], rot16, rot8);
      quarter_round_lanes(x[0], x[5], x[10], x[15], rot16, rot8);
      quarter_round_lanes(x[1], x[6], x[11], x[12], rot16, rot8);
      quarter_round_lanes(x[2], x[7], x[8], x[13], rot16, rot8);
      quarter_round_lanes(x[3], x[4], x[9], x[14], rot16, rot8);
    }
    for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], in[i]);
    for (int g = 0; g < 16; g += 4) transpose_lanes(x[g], x[g + 1], x[g + 2], x[g + 3]);

    const std::size_t take = std::min(n, kChaChaWideBlocks);
    std::uint8_t* dst = take == kChaChaWideBlocks ? out : tail;
    for (int j = 0; j < 4; ++j) {
      auto* lo = reinterpret_cast<__m256i*>(dst + kChaChaBlockSize * j);
      auto* hi = reinterpret_cast<__m256i*>(dst + kChaChaBlockSize * (j + 4));
      _mm256_storeu_si256(lo, _mm256_permute2x128_si256(x[j], x[j + 4], 0x20));
      _mm256_storeu_si256(lo + 1, _mm256_permute2x128_si256(x[j + 8], x[j + 12], 0x20));
      _mm256_storeu_si256(hi, _mm256_permute2x128_si256(x[j], x[j + 4], 0x31));
      _mm256_storeu_si256(hi + 1, _mm256_permute2x128_si256(x[j + 8], x[j + 12], 0x31));
    }
    if (dst == tail) std::memcpy(out, tail, take * kChaChaBlockSize);
    out += take * kChaChaBlockSize;
    n -= take;
    state[12] += kChaChaWideBlocks;
  }
}
#undef SOS_AVX2

// AVX2 (leaf 7 EBX bit 5), with the OS saving the YMM state: OSXSAVE (leaf 1
// ECX bit 27) and XCR0 bits 1 and 2.
bool cpu_has_avx2() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __get_cpuid(1, &eax, &ebx, &ecx, &edx);
  if ((ecx & (1u << 27)) == 0) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6) != 0x6) return false;
  __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx);
  return (ebx & (1u << 5)) != 0;
}
#endif

ChaCha20Kernel selected_kernel() {
  static const ChaCha20Kernel kernel = [] {
#if defined(__x86_64__)
    if (cpu_has_avx2()) return &chacha20_blocks_avx2;
#endif
    return &detail::chacha20_blocks_portable;
  }();
  return kernel;
}
}  // namespace

void detail::chacha20_blocks_portable(const std::uint8_t key[kChaChaKeySize],
                                      std::uint32_t counter,
                                      const std::uint8_t nonce[kChaChaNonceSize],
                                      std::uint8_t* out, std::size_t n) {
  std::uint32_t state[16];
  init_state(state, key, counter, nonce);
  for (; n > 0; --n, ++state[12], out += kChaChaBlockSize) {
    std::uint32_t x[16];
    std::memcpy(x, state, sizeof(x));
    for (int round = 0; round < 10; ++round) {
      quarter_round(x[0], x[4], x[8], x[12]);
      quarter_round(x[1], x[5], x[9], x[13]);
      quarter_round(x[2], x[6], x[10], x[14]);
      quarter_round(x[3], x[7], x[11], x[15]);
      quarter_round(x[0], x[5], x[10], x[15]);
      quarter_round(x[1], x[6], x[11], x[12]);
      quarter_round(x[2], x[7], x[8], x[13]);
      quarter_round(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) util::store32_le(out + 4 * i, x[i] + state[i]);
  }
}

void detail::chacha20_blocks(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                             const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* out,
                             std::size_t n) {
  selected_kernel()(key, counter, nonce, out, n);
}

void detail::xor_bytes(std::uint8_t* out, const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) out[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
}

const char* chacha20_backend() {
  return selected_kernel() == &detail::chacha20_blocks_portable ? "portable" : "avx2";
}

void chacha20_xor(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                  const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* data,
                  std::size_t len) {
  const ChaCha20Kernel kernel = selected_kernel();
  std::uint8_t ks[kChaChaWideBlocks * kChaChaBlockSize];
  while (len > 0) {
    const std::size_t take = std::min(len, sizeof(ks));
    const std::size_t blocks = (take + kChaChaBlockSize - 1) / kChaChaBlockSize;
    kernel(key, counter, nonce, ks, blocks);
    detail::xor_bytes(data, data, ks, take);
    counter += static_cast<std::uint32_t>(blocks);
    data += take;
    len -= take;
  }
}

}  // namespace sos::crypto
