#include "crypto/poly1305.hpp"

#include <cstring>

namespace sos::crypto {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;
}  // namespace

Poly1305::Poly1305(const std::uint8_t key[kPolyKeySize]) {
  // r with the RFC clamping. Clamping clears the low two bits of r1, so
  // s1 = r1 + r1/4 = 5 * r1/4 exactly: it folds the limb products that land
  // at 2^128 and above back down (2^130 = 5 mod p).
  r_[0] = util::load64_le(key + 0) & 0x0ffffffc0fffffffULL;
  r_[1] = util::load64_le(key + 8) & 0x0ffffffc0ffffffcULL;
  pad_[0] = util::load64_le(key + 16);
  pad_[1] = util::load64_le(key + 24);
}

// h = (h + m + hibit * 2^128) * r, partially reduced: h0 and h1 are full
// 64-bit limbs and h2 (bits 128 and up) stays below 8 between blocks.
void Poly1305::blocks(const std::uint8_t* data, std::size_t len, u64 hibit) {
  const u64 r0 = r_[0], r1 = r_[1];
  const u64 s1 = r1 + (r1 >> 2);
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];

  while (len >= 16) {
    u128 t = (u128)h0 + util::load64_le(data);
    h0 = (u64)t;
    t = (u128)h1 + util::load64_le(data + 8) + (u64)(t >> 64);
    h1 = (u64)t;
    h2 += (u64)(t >> 64) + hibit;

    const u128 d0 = (u128)h0 * r0 + (u128)h1 * s1;
    u128 d1 = (u128)h0 * r1 + (u128)h1 * r0 + (u128)h2 * s1;
    u64 d2 = h2 * r0;
    h0 = (u64)d0;
    d1 += (u64)(d0 >> 64);
    h1 = (u64)d1;
    d2 += (u64)(d1 >> 64);

    // Fold bits 130 and up: (d2 >> 2) * 2^130 = (d2 >> 2) * 5.
    const u64 c = (d2 >> 2) + (d2 & ~u64{3});
    h2 = d2 & 3;
    t = (u128)h0 + c;
    h0 = (u64)t;
    t = (u128)h1 + (u64)(t >> 64);
    h1 = (u64)t;
    h2 += (u64)(t >> 64);

    data += 16;
    len -= 16;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::update(util::ByteView data) {
  // An empty view may carry a null data() pointer, and memcpy from null is
  // UB even at size 0.
  if (data.empty()) return;
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t take = std::min<std::size_t>(16 - buf_len_, data.size());
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 16) {
      blocks(buf_, 16, 1);
      buf_len_ = 0;
    }
  }
  std::size_t full = (data.size() - off) & ~static_cast<std::size_t>(15);
  if (full > 0) {
    blocks(data.data() + off, full, 1);
    off += full;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

PolyTag Poly1305::finish() {
  if (buf_len_ > 0) {
    // final partial block: append 0x01 then zeros, no hibit
    std::uint8_t block[16] = {0};
    std::memcpy(block, buf_, buf_len_);
    block[buf_len_] = 1;
    blocks(block, 16, 0);
    buf_len_ = 0;
  }
  u64 h0 = h_[0], h1 = h_[1], h2 = h_[2];
  // h < 2p here, so one conditional subtraction reduces it: g = h + 5 has
  // bit 130 set exactly when h >= p, and then h - p = g mod 2^130.
  u128 t = (u128)h0 + 5;
  const u64 g0 = (u64)t;
  t = (u128)h1 + (u64)(t >> 64);
  const u64 g1 = (u64)t;
  const u64 g2 = h2 + (u64)(t >> 64);
  const u64 mask = 0 - (g2 >> 2);  // all-ones iff h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);

  // tag = (h + pad) mod 2^128
  t = (u128)h0 + pad_[0];
  const u64 lo = (u64)t;
  const u64 hi = h1 + pad_[1] + (u64)(t >> 64);

  PolyTag tag;
  util::store64_le(tag.data() + 0, lo);
  util::store64_le(tag.data() + 8, hi);
  return tag;
}

}  // namespace sos::crypto
