#include "crypto/drbg.hpp"

#include <cstring>

#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "util/codec.hpp"

namespace sos::crypto {

Drbg::Drbg(util::ByteView seed) {
  auto d = Sha256::hash(seed);
  std::memcpy(key_, d.data(), 32);
}

void Drbg::generate(std::uint8_t* out, std::size_t len) {
  std::memset(out, 0, len);
  std::uint8_t nonce[12] = {0};
  util::store64_le(nonce, counter_++);
  chacha20_xor(key_, 0, nonce, out, len);
}

util::Bytes Drbg::generate(std::size_t len) {
  util::Bytes out(len);
  generate(out.data(), len);
  return out;
}

void Drbg::save_state(util::Writer& w) const {
  util::put(w, *this);
}

bool Drbg::load_state(util::Reader& r) {
  Drbg next = *this;
  util::get(r, next);
  if (!r.ok()) return false;
  *this = next;
  return true;
}

}  // namespace sos::crypto
