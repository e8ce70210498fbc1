// Deterministic random byte generator (ChaCha20-based). All key material in
// simulations derives from the scenario seed so every run is reproducible.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace sos::util {
class Writer;
class Reader;
}  // namespace sos::util

namespace sos::crypto {

class Drbg {
 public:
  explicit Drbg(util::ByteView seed);
  Drbg(const Drbg&) = default;
  Drbg& operator=(const Drbg&) = default;
  Drbg(Drbg&&) = default;
  Drbg& operator=(Drbg&&) = default;
  ~Drbg() { util::secure_wipe(key_, sizeof(key_)); }

  /// Fill `out` with the next `len` pseudo-random bytes.
  void generate(std::uint8_t* out, std::size_t len);
  util::Bytes generate(std::size_t len);

  template <std::size_t N>
  std::array<std::uint8_t, N> generate_array() {
    std::array<std::uint8_t, N> out;
    generate(out.data(), out.size());
    return out;
  }

  /// Checkpoint the full generator state (key + counter): a restored Drbg
  /// continues the byte stream exactly where the saved one stopped.
  void save_state(util::Writer& w) const;
  bool load_state(util::Reader& r);

  /// Checkpoint layout.
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.key_, s.counter_);
  }

 private:
  std::uint8_t key_[32];
  std::uint64_t counter_ = 0;
};

}  // namespace sos::crypto
