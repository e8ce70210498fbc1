// Byte-buffer helpers shared by every module: hex and base32 text codecs,
// constant-time comparison for secrets, and small conversion utilities.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sos::util {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Bytes from a string's raw characters.
Bytes to_bytes(std::string_view s);

/// A string literal's characters (without the terminating NUL) as a
/// compile-time byte array, for protocol labels used on hot paths.
template <std::size_t N>
constexpr std::array<std::uint8_t, N - 1> literal_bytes(const char (&s)[N]) {
  std::array<std::uint8_t, N - 1> out{};
  for (std::size_t i = 0; i + 1 < N; ++i) out[i] = static_cast<std::uint8_t>(s[i]);
  return out;
}

/// Raw characters of a byte buffer as a std::string (may contain NUL).
std::string to_string(ByteView b);

/// Lowercase hex encoding ("deadbeef").
std::string hex_encode(ByteView b);

/// Decode hex; returns nullopt on odd length or non-hex characters.
std::optional<Bytes> hex_decode(std::string_view s);

/// RFC 4648 base32 (no padding, uppercase). Used for the 10-byte user ids:
/// 10 bytes -> exactly 16 base32 characters.
std::string base32_encode(ByteView b);
std::optional<Bytes> base32_decode(std::string_view s);

/// Constant-time equality for MACs/keys: always touches every byte.
bool ct_equal(ByteView a, ByteView b);

/// Zeroize secret material in a way the optimizer cannot elide (dead-store
/// elimination would otherwise delete a plain memset before free). Key
/// structs call this from their destructors; the sos-lint zeroize-secret
/// rule enforces that discipline statically.
void secure_wipe(void* p, std::size_t n);

template <std::size_t N>
void secure_wipe(std::array<std::uint8_t, N>& a) {
  secure_wipe(a.data(), a.size());
}

/// Append `src` to `dst`.
void append(Bytes& dst, ByteView src);

/// Concatenate any number of buffers.
template <typename... Views>
Bytes concat(const Views&... vs) {
  Bytes out;
  std::size_t total = (static_cast<std::size_t>(std::size(vs)) + ... + 0u);
  out.reserve(total);
  (out.insert(out.end(), std::begin(vs), std::end(vs)), ...);
  return out;
}

/// Fixed-size array from a view; asserts the size matches.
template <std::size_t N>
std::array<std::uint8_t, N> to_array(ByteView v) {
  std::array<std::uint8_t, N> out{};
  if (v.size() != N) return out;  // caller validates; zero on mismatch
  for (std::size_t i = 0; i < N; ++i) out[i] = v[i];
  return out;
}

// Little/big-endian scalar load/store used by crypto and the wire codec.
// Inline: they sit inside every cipher, MAC and field-element loop.
inline std::uint32_t load32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t load64_le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load32_le(p)) |
         (static_cast<std::uint64_t>(load32_le(p + 4)) << 32);
}

inline std::uint32_t load32_be(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

inline std::uint64_t load64_be(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(load32_be(p)) << 32) |
         static_cast<std::uint64_t>(load32_be(p + 4));
}

inline void store32_le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store64_le(std::uint8_t* p, std::uint64_t v) {
  store32_le(p, static_cast<std::uint32_t>(v));
  store32_le(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline void store32_be(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline void store64_be(std::uint8_t* p, std::uint64_t v) {
  store32_be(p, static_cast<std::uint32_t>(v >> 32));
  store32_be(p + 4, static_cast<std::uint32_t>(v));
}

}  // namespace sos::util
