#include "bundle/records.hpp"

#include <algorithm>
#include <cassert>

namespace sos::bundle {

namespace {

// Bucket hashes. Signatures and digests are uniformly distributed, so eight of
// their bytes spread the entries; equality is decided by same_shared.
std::uint64_t bucket(const Bundle& b) {
  return util::load64_le(b.signature.data()) ^ util::load64_le(b.origin.bytes.data()) ^
         (static_cast<std::uint64_t>(b.msg_num) << 32);
}

std::uint64_t bucket(const pki::Certificate& c) {
  return util::load64_le(c.signature.data()) ^ c.serial;
}

std::uint64_t bucket(const Verdict& v) {
  return util::load64_le(v.digest.data()) ^ v.id.msg_num;
}

}  // namespace

template <class T>
std::uint32_t RecordPool<T>::intern(const T& v) {
  // Linear probing at load factor <= 1/2; a stored hash screens out most
  // non-matching entries before the field-by-field comparison.
  if (slots_.size() < 2 * (records_.size() + 1))
    rehash(std::max<std::size_t>(64, 2 * slots_.size()));
  const std::uint64_t h = bucket(v);
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = static_cast<std::size_t>(h) & mask;
  for (; slots_[s] != 0; s = (s + 1) & mask) {
    const std::uint32_t i = slots_[s] - 1;
    if (hashes_[i] == h && util::same_shared(records_[i], v)) return i;
  }
  const auto n = static_cast<std::uint32_t>(records_.size());
  slots_[s] = n + 1;
  hashes_.push_back(h);
  records_.push_back(v);
  return n;
}

template <class T>
void RecordPool<T>::rehash(std::size_t n) {
  slots_.assign(n, 0);
  const std::size_t mask = n - 1;
  for (std::uint32_t i = 0; i < hashes_.size(); ++i) {
    std::size_t s = static_cast<std::size_t>(hashes_[i]) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = i + 1;
  }
}

template <class T>
bool RecordPool<T>::load(util::Reader& r) {
  assert(records_.empty());
  std::uint64_t n = r.count();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    T rec{};
    util::get_shared(r, rec);
    // A repeated entry interns to its first copy's index, not to i.
    if (!r.ok() || intern(rec) != i) return false;
  }
  return r.ok();
}

template class RecordPool<Bundle>;
template class RecordPool<pki::Certificate>;
template class RecordPool<Verdict>;

}  // namespace sos::bundle
