#include "crypto/hmac.hpp"

#include <cstring>

namespace sos::crypto {

Sha256::Digest hmac_sha256(util::ByteView key, util::ByteView msg) {
  std::uint8_t k[Sha256::kBlockSize] = {0};
  if (key.size() > Sha256::kBlockSize) {
    auto d = Sha256::hash(key);
    std::memcpy(k, d.data(), d.size());
  } else if (!key.empty()) {
    // Empty keys are legal (HKDF-Extract with no salt): memcpy from a
    // null data() pointer is UB even at size 0.
    std::memcpy(k, key.data(), key.size());
  }
  std::uint8_t ipad[Sha256::kBlockSize], opad[Sha256::kBlockSize];
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update(util::ByteView(ipad, Sha256::kBlockSize));
  inner.update(msg);
  auto inner_digest = inner.finish();
  Sha256 outer;
  outer.update(util::ByteView(opad, Sha256::kBlockSize));
  outer.update(util::ByteView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

}  // namespace sos::crypto
