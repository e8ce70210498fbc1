#include "util/codec.hpp"

#include <cstring>

namespace sos::util {

void Writer::u32(std::uint32_t v) {
  std::uint8_t tmp[4];
  store32_be(tmp, v);
  buf_.insert(buf_.end(), tmp, tmp + 4);
}

void Writer::u64(std::uint64_t v) {
  std::uint8_t tmp[8];
  store64_be(tmp, v);
  buf_.insert(buf_.end(), tmp, tmp + 8);
}

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::bytes(ByteView b) {
  varint(b.size());
  raw(b);
}

void Writer::str(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::raw(ByteView b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::close_frame(std::size_t at) {
  std::size_t len = buf_.size() - at - 1;
  std::uint8_t prefix[10];
  std::size_t n = 0;
  while (len >= 0x80) {
    prefix[n++] = static_cast<std::uint8_t>(len) | 0x80;
    len >>= 7;
  }
  prefix[n++] = static_cast<std::uint8_t>(len);
  if (n > 1) buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(at) + 1, n - 1, 0);
  std::memcpy(buf_.data() + at, prefix, n);
}

const std::uint8_t* Reader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const std::uint8_t* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Reader::u8() {
  const std::uint8_t* p = take(1);
  return p ? *p : 0;
}

std::uint32_t Reader::u32() {
  const std::uint8_t* p = take(4);
  return p ? load32_be(p) : 0;
}

std::uint64_t Reader::u64() {
  const std::uint8_t* p = take(8);
  return p ? load64_be(p) : 0;
}

double Reader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    const std::uint8_t* p = take(1);
    if (!p) return 0;
    if (shift >= 64) {  // overlong encoding
      ok_ = false;
      return 0;
    }
    v |= static_cast<std::uint64_t>(*p & 0x7F) << shift;
    if ((*p & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::uint64_t Reader::count(std::uint64_t max) {
  std::uint64_t n = varint();
  if (n > max || n > remaining()) {
    ok_ = false;
    return 0;
  }
  return n;
}

ByteView Reader::prefixed() {
  std::uint64_t n = varint();
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return {};
  }
  const std::uint8_t* p = take(static_cast<std::size_t>(n));
  return ByteView(p, static_cast<std::size_t>(n));
}

Bytes Reader::bytes() {
  ByteView b = prefixed();
  return Bytes(b.begin(), b.end());
}

std::string Reader::str() {
  ByteView b = prefixed();
  return std::string(b.begin(), b.end());
}

Reader Reader::framed() {
  ByteView b = prefixed();
  Reader sub(b);
  sub.ok_ = ok_;
  return sub;
}

Bytes Reader::raw(std::size_t n) {
  const std::uint8_t* p = take(n);
  if (!p) return {};
  return Bytes(p, p + n);
}

void Reader::fixed(std::span<std::uint8_t> out) {
  const std::uint8_t* p = take(out.size());
  if (p != nullptr) std::memcpy(out.data(), p, out.size());
}

}  // namespace sos::util
