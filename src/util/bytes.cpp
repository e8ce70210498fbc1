#include "util/bytes.hpp"

#include <cstring>

namespace sos::util {

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(ByteView b) {
  return std::string(b.begin(), b.end());
}

namespace {
constexpr char kHex[] = "0123456789abcdef";

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

constexpr char kB32[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567";

int b32_val(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a';
  if (c >= '2' && c <= '7') return c - '2' + 26;
  return -1;
}
}  // namespace

std::string hex_encode(ByteView b) {
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t v : b) {
    out.push_back(kHex[v >> 4]);
    out.push_back(kHex[v & 0xF]);
  }
  return out;
}

std::optional<Bytes> hex_decode(std::string_view s) {
  if (s.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    int hi = hex_val(s[i]);
    int lo = hex_val(s[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::string base32_encode(ByteView b) {
  std::string out;
  out.reserve((b.size() * 8 + 4) / 5);
  std::uint32_t acc = 0;
  int bits = 0;
  for (std::uint8_t v : b) {
    acc = (acc << 8) | v;
    bits += 8;
    while (bits >= 5) {
      bits -= 5;
      out.push_back(kB32[(acc >> bits) & 0x1F]);
    }
  }
  if (bits > 0) out.push_back(kB32[(acc << (5 - bits)) & 0x1F]);
  return out;
}

std::optional<Bytes> base32_decode(std::string_view s) {
  Bytes out;
  out.reserve(s.size() * 5 / 8);
  std::uint32_t acc = 0;
  int bits = 0;
  for (char c : s) {
    int v = b32_val(c);
    if (v < 0) return std::nullopt;
    acc = (acc << 5) | static_cast<std::uint32_t>(v);
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((acc >> bits) & 0xFF));
    }
  }
  return out;
}

bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff = static_cast<std::uint8_t>(diff | (a[i] ^ b[i]));
  return diff == 0;
}

void secure_wipe(void* p, std::size_t n) {
  // A volatile pointer walk is the portable equivalent of explicit_bzero:
  // the qualified accesses are observable behaviour, so the stores survive
  // dead-store elimination even when the object is about to die.
  volatile std::uint8_t* vp = static_cast<volatile std::uint8_t*>(p);
  for (std::size_t i = 0; i < n; ++i) vp[i] = 0;
}

void append(Bytes& dst, ByteView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace sos::util
