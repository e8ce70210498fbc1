// ChaCha20 stream cipher (RFC 8439): block function and XOR keystream.
//
// The keystream has two kernels: the portable one and, on x86-64 CPUs with
// AVX2, one that computes eight consecutive blocks at once, one block per
// 32-bit lane (Goll & Gueron, "Vectorization of ChaCha Stream Cipher",
// ITNG 2014). The kernel is chosen once per process from CPUID; both produce
// the same keystream bit for bit.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace sos::crypto {

constexpr std::size_t kChaChaKeySize = 32;
constexpr std::size_t kChaChaNonceSize = 12;
constexpr std::size_t kChaChaBlockSize = 64;
/// Blocks the widest kernel computes per pass; callers that know their
/// length up front (the AEAD) size one call to fit it.
constexpr std::size_t kChaChaWideBlocks = 8;

namespace detail {
/// The portable keystream kernel: writes `n` consecutive 64-byte blocks to
/// `out`, starting at block `counter`. The 32-bit block counter wraps mod
/// 2^32 and never carries into the nonce, as in RFC 8439. It is the fallback
/// where the CPU has no AVX2, and the reference the vector kernel is tested
/// against.
void chacha20_blocks_portable(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                              const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* out,
                              std::size_t n);

/// The same contract on the kernel selected for this CPU (see
/// chacha20_backend()).
void chacha20_blocks(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                     const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* out,
                     std::size_t n);

/// out[i] = a[i] ^ b[i] for i < len (out may alias a).
void xor_bytes(std::uint8_t* out, const std::uint8_t* a, const std::uint8_t* b, std::size_t len);
}  // namespace detail

/// The keystream kernel in use: "avx2" or "portable".
const char* chacha20_backend();

/// XOR `data` with the keystream starting at block `counter` (in place).
void chacha20_xor(const std::uint8_t key[kChaChaKeySize], std::uint32_t counter,
                  const std::uint8_t nonce[kChaChaNonceSize], std::uint8_t* data,
                  std::size_t len);

}  // namespace sos::crypto
