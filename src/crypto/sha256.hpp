// SHA-256 (FIPS 180-4). Incremental and one-shot APIs.
//
// The compression function has two kernels: the portable one below and, on
// x86-64 CPUs with the SHA extensions, one built on sha256rnds2/msg1/msg2.
// The kernel is chosen once per process from CPUID; both produce the same
// digests bit for bit.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace sos::crypto {

namespace detail {
/// A compression kernel: folds `n` consecutive 64-byte blocks into `state`.
using Sha256Kernel = void (*)(std::uint32_t state[8], const std::uint8_t* blocks,
                              std::size_t n);

/// The portable kernel: the fallback where the CPU has no SHA extensions,
/// and the reference the hardware kernel is tested against.
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t n);
}  // namespace detail

/// The kernel every default-constructed Sha256 uses: "sha-ni" or "portable".
const char* sha256_backend();

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();
  /// Pins the compression kernel (tests run the portable reference this way).
  explicit Sha256(detail::Sha256Kernel kernel);
  void update(util::ByteView data);
  Digest finish();

  static Digest hash(util::ByteView data);

 private:
  void compress(const std::uint8_t* blocks, std::size_t n) { kernel_(h_, blocks, n); }

  detail::Sha256Kernel kernel_;
  std::uint32_t h_[8];
  std::uint8_t buf_[kBlockSize];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace sos::crypto
