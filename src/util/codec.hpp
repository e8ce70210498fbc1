// Binary codec for every serialized record: wire frames, bundles,
// certificates, app records, routing blobs and checkpoint state.
//
// Fixed-width integers are big-endian, doubles travel as their IEEE-754
// bits, lengths and counts are LEB128 varints. Readers are bounds-checked
// and never throw: a failed read poisons the reader (ok() == false) and
// later reads return zeros, so a parser validates once at the end.
//
// Each record type declares its layout once, as a field list in wire order:
//
//   static constexpr std::string_view kSigningDomain = "sos-bundle-v1";
//   template <class S, class F>
//   static void fields(S& s, F&& f) {
//     f(s.origin, s.msg_num, util::per_copy(s.hop_count), s.payload,
//       util::unsigned_field(s.signature));
//   }
//
// S is the record or a const record, so the one list drives every walker
// below: encode(), the strict decode(), signing_bytes() — the domain tag
// followed by every field not marked unsigned_field or per_copy — and the
// shared-body walkers put_shared(), get_shared() and same_shared(), which
// skip the per_copy fields. How a field is written follows from its type:
//
//   u8/bool/u32/u64          fixed width     double        its f64 bits
//   u8 array (std or C)      raw bytes       Bytes/string  varint length + raw
//   vector/list/set/map      varint count, then each element (a map entry is
//                            its key, then its value)
//   a record                 its own field list, inline
//
// Markers override that: enum_u8(e, max) is a range-checked one-byte enum,
// bounded(c, max) a container whose decoder refuses more than max elements,
// framed(r) a record carried as a length-prefixed sub-encoding. Containers
// decode by appending; a map keeps the last value of a repeated key.
// Hand-written container code (index rebuilds, LRU order, parse-then-commit)
// calls put() and get() on the records it holds.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/bytes.hpp"

namespace sos::util {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void varint(std::uint64_t v);
  /// Length-prefixed (varint) byte string.
  void bytes(ByteView b);
  /// Length-prefixed (varint) UTF-8 string.
  void str(std::string_view s);
  /// Raw bytes, no length prefix (fixed-size fields).
  void raw(ByteView b);
  /// Length-prefixed sub-encoding written by fn(Writer&) in place: fn
  /// writes behind a one-byte prefix, which widens (shifting the
  /// sub-encoding) only when the length needs more than one varint byte.
  template <class Fn>
  void framed(Fn&& fn) {
    const std::size_t at = size();
    u8(0);
    fn(*this);
    close_frame(at);
  }

  void reserve(std::size_t n) { buf_.reserve(n); }
  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  /// Write the length prefix of the frame whose placeholder byte is at `at`.
  void close_frame(std::size_t at);

  Bytes buf_;
};

/// A Writer that only counts: sizes an encoding before it is written.
class Sizer {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void varint(std::uint64_t v) {
    do {
      ++n_;
      v >>= 7;
    } while (v != 0);
  }
  void bytes(ByteView b) {
    varint(b.size());
    n_ += b.size();
  }
  void str(std::string_view s) {
    varint(s.size());
    n_ += s.size();
  }
  void raw(ByteView b) { n_ += b.size(); }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

class Reader {
 public:
  explicit Reader(ByteView b) : data_(b) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::uint64_t varint();
  /// A varint element count; fails the reader above `max`, or when fewer
  /// bytes remain than elements (every element takes at least one).
  std::uint64_t count(std::uint64_t max = UINT64_MAX);
  Bytes bytes();
  std::string str();
  /// Read exactly n raw bytes.
  Bytes raw(std::size_t n);
  /// Read exactly out.size() raw bytes in place.
  void fixed(std::span<std::uint8_t> out);
  /// A reader over the next length-prefixed sub-encoding, borrowed from
  /// this reader's buffer (empty and failed when this read fails).
  Reader framed();
  /// Poison the reader: a field decoded to an invalid value.
  void fail() { ok_ = false; }

  bool ok() const { return ok_; }
  /// True when every byte was consumed and no read failed.
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::uint8_t* take(std::size_t n);
  /// The next varint-length-prefixed run of bytes, borrowed.
  ByteView prefixed();

  ByteView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- field-list markers -----------------------------------------------------

/// Outside the signature: signing_bytes() skips it.
template <class T>
struct Unsigned {
  T& v;
};
template <class T>
Unsigned<T> unsigned_field(T& v) {
  return {v};
}

/// Per-copy relay metadata (a bundle's hop count): outside the signature,
/// and outside the body that copies of one record share in a checkpoint.
template <class T>
struct PerCopy {
  T& v;
};
template <class T>
PerCopy<T> per_copy(T& v) {
  return {v};
}

/// One-byte enum; decoding fails above `max`.
template <class E>
struct EnumU8 {
  E& v;
  std::remove_const_t<E> max;
};
template <class E>
EnumU8<E> enum_u8(E& v, std::remove_const_t<E> max) {
  return {v, max};
}

/// Container whose decoder refuses more than `max` elements.
template <class C>
struct Bounded {
  C& c;
  std::uint64_t max;
};
template <class C>
Bounded<C> bounded(C& c, std::uint64_t max) {
  return {c, max};
}

/// Record carried as a length-prefixed sub-encoding.
template <class T>
struct Framed {
  T& v;
};
template <class T>
Framed<T> framed(T& v) {
  return {v};
}

// --- the walkers --------------------------------------------------------------

namespace codec_detail {

struct AnyFields {
  template <class... A>
  void operator()(A&&...) const {}
};
template <class T>
concept Record = requires(T& t) { std::remove_const_t<T>::fields(t, AnyFields{}); };
template <class T>
concept ByteArray = std::is_same_v<T, std::array<std::uint8_t, sizeof(T)>> ||
                    std::is_same_v<T, std::uint8_t[sizeof(T)]>;
template <class T>
concept Pair = requires(T& t) {
  t.first;
  t.second;
};
template <class T>
concept Map = requires { typename T::mapped_type; };

/// A default element of container C, in the form it decodes into.
template <class C>
auto element() {
  if constexpr (Map<C>)
    return std::pair<typename C::key_type, typename C::mapped_type>{};
  else
    return typename C::value_type{};
}

}  // namespace codec_detail

template <class W, class T>
void put(W& w, const T& v);

template <class W, class T>
void put(W& w, const Unsigned<T>& f) {
  put(w, f.v);
}
template <class W, class T>
void put(W& w, const PerCopy<T>& f) {
  put(w, f.v);
}
template <class W, class E>
void put(W& w, const EnumU8<E>& f) {
  w.u8(static_cast<std::uint8_t>(f.v));
}
template <class W, class C>
void put(W& w, const Bounded<C>& f) {
  put(w, f.c);
}
template <class W, class T>
void put(W& w, const Framed<T>& f) {
  Sizer s;
  put(s, f.v);
  w.varint(s.size());
  put(w, f.v);
}

/// Append v's encoding to w (a Writer or a Sizer).
template <class W, class T>
void put(W& w, const T& v) {
  using namespace codec_detail;
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (ByteArray<T>) {
    w.raw(ByteView(std::data(v), std::size(v)));
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.bytes(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (Pair<T>) {
    put(w, v.first);
    put(w, v.second);
  } else if constexpr (std::ranges::range<T>) {
    w.varint(v.size());
    for (const auto& e : v) put(w, e);
  } else {
    static_assert(Record<const T>, "no encoding for this field type");
    T::fields(v, [&w](const auto&... fs) { (put(w, fs), ...); });
  }
}

/// Append the encodings of several values, in order.
template <class W, class T, class U, class... More>
void put(W& w, const T& a, const U& b, const More&... more) {
  put(w, a);
  put(w, b, more...);
}

template <class T>
void get(Reader& r, T& v);

template <class T>
void get(Reader& r, Unsigned<T> f) {
  get(r, f.v);
}
template <class T>
void get(Reader& r, PerCopy<T> f) {
  get(r, f.v);
}
template <class E>
void get(Reader& r, EnumU8<E> f) {
  std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(f.max)) r.fail();
  f.v = static_cast<E>(r.ok() ? v : 0);
}

/// Decode a container of at most `max` elements, appending to c.
template <class C>
void get_seq(Reader& r, C& c, std::uint64_t max) {
  std::uint64_t n = r.count(max);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    auto e = codec_detail::element<C>();
    get(r, e);
    if constexpr (codec_detail::Map<C>)
      c.insert_or_assign(std::move(e.first), std::move(e.second));
    else if constexpr (requires { c.push_back(std::move(e)); })
      c.push_back(std::move(e));
    else
      c.insert(std::move(e));
  }
}

template <class C>
void get(Reader& r, Bounded<C> f) {
  get_seq(r, f.c, f.max);
}
template <class T>
void get(Reader& r, Framed<T> f) {
  Reader sub = r.framed();
  get(sub, f.v);
  if (!sub.done()) r.fail();
}

/// Decode v from r; a malformed field fails r.
template <class T>
void get(Reader& r, T& v) {
  using namespace codec_detail;
  if constexpr (std::is_same_v<T, bool>) {
    v = r.u8() != 0;
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (ByteArray<T>) {
    r.fixed(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    v = r.bytes();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (Pair<T>) {
    get(r, v.first);
    get(r, v.second);
  } else if constexpr (std::ranges::range<T>) {
    get_seq(r, v, UINT64_MAX);
  } else {
    static_assert(Record<T>, "no decoding for this field type");
    T::fields(v, [&r](auto&&... fs) { (get(r, fs), ...); });
  }
}

/// Decode several values, in order.
template <class T, class U, class... More>
void get(Reader& r, T&& a, U&& b, More&&... more) {
  get(r, a);
  get(r, b, more...);
}

/// The encoding of v, written into one exactly sized buffer.
template <class T>
Bytes encode(const T& v) {
  Sizer s;
  put(s, v);
  Writer w;
  w.reserve(s.size());
  put(w, v);
  return w.take();
}

/// Strict decode into an existing value: every byte consumed, no read failed.
template <class T>
bool decode_into(ByteView data, T&& v) {
  Reader r(data);
  get(r, v);
  return r.done();
}

/// Strict decode of a record; nullopt on truncation, trailing bytes or an
/// invalid field.
template <class T>
std::optional<T> decode(ByteView data) {
  T v{};
  if (!decode_into(data, v)) return std::nullopt;
  return v;
}

template <class W, class T>
void put_signed(W& w, const T& v) {
  put(w, v);
}
template <class W, class T>
void put_signed(W&, const Unsigned<T>&) {}
template <class W, class T>
void put_signed(W&, const PerCopy<T>&) {}

/// The bytes a signature covers: the record's domain tag (a length-prefixed
/// string) followed by every field not marked unsigned_field or per_copy.
template <class T>
Bytes signing_bytes(const T& v) {
  auto walk = [&v](auto& w) {
    w.str(T::kSigningDomain);
    T::fields(v, [&w](const auto&... fs) { (put_signed(w, fs), ...); });
  };
  Sizer s;
  walk(s);
  Writer w;
  w.reserve(s.size());
  walk(w);
  return w.take();
}

// --- shared bodies: a record minus its per_copy fields -------------------------

template <class W, class T>
void put_shared_field(W& w, const T& f) {
  put(w, f);
}
template <class W, class T>
void put_shared_field(W&, const PerCopy<T>&) {}

/// Append the encoding of v's fields except its per_copy ones.
template <class W, class T>
void put_shared(W& w, const T& v) {
  T::fields(v, [&w](const auto&... fs) { (put_shared_field(w, fs), ...); });
}

template <class T>
void get_shared_field(Reader& r, T& f) {
  get(r, f);
}
template <class T>
void get_shared_field(Reader&, PerCopy<T>) {}

/// Decode what put_shared wrote; per_copy fields keep their values.
template <class T>
void get_shared(Reader& r, T& v) {
  T::fields(v, [&r](auto&&... fs) { (get_shared_field(r, fs), ...); });
}

namespace codec_detail {

template <class T>
bool same_value(const T& a, const T& b);
template <class T>
bool same_value(const Unsigned<T>& a, const Unsigned<T>& b) {
  return same_value(a.v, b.v);
}
template <class E>
bool same_value(const EnumU8<E>& a, const EnumU8<E>& b) {
  return a.v == b.v;
}
template <class T>
bool same_value(const PerCopy<T>&, const PerCopy<T>&) {
  return true;
}

/// Equal encodings: doubles compare by bits, records field by field.
template <class T>
bool same_value(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  } else if constexpr (Record<const T>) {
    bool same = true;
    T::fields(a, [&](const auto&... fa) {
      T::fields(b, [&](const auto&... fb) { same = (same_value(fa, fb) && ...); });
    });
    return same;
  } else {
    static_assert(!std::ranges::range<T> || std::is_same_v<T, Bytes> ||
                      std::is_same_v<T, std::string> || ByteArray<T>,
                  "same_value compares byte containers only");
    return a == b;
  }
}

}  // namespace codec_detail

/// True when put_shared would write the same bytes for a and b.
template <class T>
bool same_shared(const T& a, const T& b) {
  return codec_detail::same_value(a, b);
}

}  // namespace sos::util
