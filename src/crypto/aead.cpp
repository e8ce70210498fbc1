#include "crypto/aead.hpp"

#include <algorithm>

#include "crypto/poly1305.hpp"

namespace sos::crypto {

namespace {
PolyTag compute_tag(const std::uint8_t poly_key[32], util::ByteView aad,
                    util::ByteView ciphertext) {
  Poly1305 mac(poly_key);
  static const std::uint8_t zeros[16] = {0};
  mac.update(aad);
  if (aad.size() % 16 != 0) mac.update(util::ByteView(zeros, 16 - aad.size() % 16));
  mac.update(ciphertext);
  if (ciphertext.size() % 16 != 0)
    mac.update(util::ByteView(zeros, 16 - ciphertext.size() % 16));
  std::uint8_t lens[16];
  util::store64_le(lens, aad.size());
  util::store64_le(lens + 8, ciphertext.size());
  mac.update(util::ByteView(lens, 16));
  return mac.finish();
}

// The keystream for one message, starting at block 0. Block 0 keys
// Poly1305 and blocks 1.. encrypt, so a message of up to seven blocks
// (448 bytes) takes its Poly1305 key and its whole keystream from one
// kernel call; only longer messages call the kernel again for the rest.
class MessageKeystream {
 public:
  MessageKeystream(const std::uint8_t key[kAeadKeySize],
                   const std::uint8_t nonce[kAeadNonceSize], std::size_t len)
      : key_(key), nonce_(nonce) {
    const std::size_t data_blocks = (len + kChaChaBlockSize - 1) / kChaChaBlockSize;
    detail::chacha20_blocks(key, 0, nonce, ks_, std::min(1 + data_blocks, kChaChaWideBlocks));
  }

  const std::uint8_t* poly_key() const { return ks_; }

  void apply(std::uint8_t* data, std::size_t len) const {
    const std::size_t head = std::min(len, sizeof(ks_) - kChaChaBlockSize);
    detail::xor_bytes(data, data, ks_ + kChaChaBlockSize, head);
    if (len > head)
      chacha20_xor(key_, static_cast<std::uint32_t>(kChaChaWideBlocks), nonce_, data + head,
                   len - head);
  }

 private:
  const std::uint8_t* key_;
  const std::uint8_t* nonce_;
  std::uint8_t ks_[kChaChaWideBlocks * kChaChaBlockSize];
};
}  // namespace

void aead_seal_in_place(const std::uint8_t key[kAeadKeySize],
                        const std::uint8_t nonce[kAeadNonceSize], util::ByteView aad,
                        util::Bytes& buf, std::size_t from) {
  const std::size_t len = buf.size() - from;
  MessageKeystream ks(key, nonce, len);
  ks.apply(buf.data() + from, len);
  const PolyTag tag = compute_tag(ks.poly_key(), aad, util::ByteView(buf.data() + from, len));
  buf.insert(buf.end(), tag.begin(), tag.end());
}

util::Bytes aead_seal(const std::uint8_t key[kAeadKeySize],
                      const std::uint8_t nonce[kAeadNonceSize], util::ByteView aad,
                      util::ByteView plaintext) {
  util::Bytes out;
  out.reserve(plaintext.size() + kAeadTagSize);
  out.assign(plaintext.begin(), plaintext.end());
  aead_seal_in_place(key, nonce, aad, out, 0);
  return out;
}

bool aead_open_in_place(const std::uint8_t key[kAeadKeySize],
                        const std::uint8_t nonce[kAeadNonceSize], util::ByteView aad,
                        util::Bytes& buf, std::size_t from) {
  if (buf.size() < from || buf.size() - from < kAeadTagSize) return false;
  const std::size_t len = buf.size() - from - kAeadTagSize;
  std::uint8_t* ciphertext = buf.data() + from;
  MessageKeystream ks(key, nonce, len);
  const PolyTag expect = compute_tag(ks.poly_key(), aad, util::ByteView(ciphertext, len));
  if (!util::ct_equal(util::ByteView(expect.data(), expect.size()),
                      util::ByteView(ciphertext + len, kAeadTagSize)))
    return false;
  ks.apply(ciphertext, len);
  buf.resize(buf.size() - kAeadTagSize);
  return true;
}

std::optional<util::Bytes> aead_open(const std::uint8_t key[kAeadKeySize],
                                     const std::uint8_t nonce[kAeadNonceSize],
                                     util::ByteView aad, util::ByteView sealed) {
  if (sealed.size() < kAeadTagSize) return std::nullopt;
  util::Bytes buf(sealed.begin(), sealed.end());
  if (!aead_open_in_place(key, nonce, aad, buf, 0)) return std::nullopt;
  return buf;
}

}  // namespace sos::crypto
