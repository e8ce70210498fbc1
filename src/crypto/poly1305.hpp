// Poly1305 one-time authenticator (RFC 8439). The accumulator is held in
// 64-bit limbs (two full limbs plus the bits from 2^128 up) and r in two,
// so each 16-byte block costs four full 64x64->128-bit products on
// unsigned __int128.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace sos::crypto {

constexpr std::size_t kPolyKeySize = 32;
constexpr std::size_t kPolyTagSize = 16;

using PolyTag = std::array<std::uint8_t, kPolyTagSize>;

class Poly1305 {
 public:
  explicit Poly1305(const std::uint8_t key[kPolyKeySize]);
  void update(util::ByteView data);
  PolyTag finish();

 private:
  void blocks(const std::uint8_t* data, std::size_t len, std::uint64_t hibit);

  std::uint64_t r_[2];
  std::uint64_t h_[3] = {0, 0, 0};
  std::uint64_t pad_[2];
  std::uint8_t buf_[16];
  std::size_t buf_len_ = 0;
};

}  // namespace sos::crypto
