// Record table of a checkpoint payload. A fleet holds many copies of the
// same few records: every carrier keeps its own copy of each bundle, every
// node caches the same certificates, and the verify caches hold the same
// (bundle id, digest) verdicts. A payload writes each unique record once,
// in a table ahead of the fleet state, and every copy refers to its entry
// by a varint index. Copies keep their per-copy fields (a bundle's hop
// count) and their owner's metadata beside the index.
//
// Table layout, each pool a varint count followed by its entries:
//
//   bundles    put_shared(Bundle): every field but the per-copy hop count
//   certs      Certificate
//   verdicts   Verdict
//
// Two entries of one pool share an index only when their encodings are
// identical, so decoding the table and resolving every index rebuilds each
// copy bit for bit. Loading fails closed on an index past its pool and on
// a pool that repeats an entry (no save writes one).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bundle/bundle.hpp"
#include "pki/certificate.hpp"
#include "util/codec.hpp"

namespace sos::bundle {

/// A verify-cache verdict: the digest a bundle id verified under.
struct Verdict {
  BundleId id;
  std::array<std::uint8_t, 32> digest{};

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.id, s.digest);
  }
};

/// The unique records of one pool, in first-reference order, with an
/// open-addressed hash index from record to entry.
template <class T>
class RecordPool {
 public:
  /// The index of the entry whose shared encoding equals v's, appending a
  /// copy of v when there is none.
  std::uint32_t intern(const T& v);
  const T* at(std::uint64_t i) const { return i < records_.size() ? &records_[i] : nullptr; }

  template <class W>
  void save(W& w) const {
    w.varint(records_.size());
    for (const T& rec : records_) util::put_shared(w, rec);
  }
  /// Decode a pool into an empty one; false on a malformed or repeated entry.
  bool load(util::Reader& r);

 private:
  /// Re-slot every entry into a table of `n` slots (a power of two).
  void rehash(std::size_t n);

  std::vector<T> records_;
  std::vector<std::uint64_t> hashes_;  // per entry
  std::vector<std::uint32_t> slots_;   // entry index + 1; 0 = empty
};

class RecordTable {
 public:
  /// Write the table of every record `save_state(w, table)` references,
  /// then the state itself, then leave room for `then` more bytes. The
  /// state is written once, interning records as it goes, into a scratch
  /// buffer (its table is complete only at its end); `w` then grows once,
  /// to the exact size, and takes the table and a copy of the state.
  template <class Save>
  static void save(util::Writer& w, Save&& save_state, std::size_t then = 0) {
    RecordTable table;
    util::Writer state;
    save_state(state, table);
    util::Sizer table_size;
    table.save_entries(table_size);
    w.reserve(w.size() + table_size.size() + state.size() + then);
    table.save_entries(w);
    w.raw(state.data());
  }

  /// Decode a table into this empty one, before any state that refers to
  /// it is read. False on a malformed, truncated or repeated entry.
  bool load(util::Reader& r) {
    return bundles_.load(r) && certs_.load(r) && verdicts_.load(r);
  }

  // --- references, written inside save_state ---------------------------------
  void put(util::Writer& w, const Bundle& b) { w.varint(bundles_.intern(b)); }
  void put(util::Writer& w, const pki::Certificate& c) { w.varint(certs_.intern(c)); }
  void put(util::Writer& w, const Verdict& v) { w.varint(verdicts_.intern(v)); }

  // --- references, read by load_state ----------------------------------------
  // The entry a read index names; nullptr, failing r, past the pool's end.
  const Bundle* bundle(util::Reader& r) const { return entry(r, bundles_); }
  const pki::Certificate* cert(util::Reader& r) const { return entry(r, certs_); }
  const Verdict* verdict(util::Reader& r) const { return entry(r, verdicts_); }

 private:
  template <class W>
  void save_entries(W& w) const {
    bundles_.save(w);
    certs_.save(w);
    verdicts_.save(w);
  }

  template <class T>
  static const T* entry(util::Reader& r, const RecordPool<T>& pool) {
    const T* rec = pool.at(r.varint());
    if (rec == nullptr) r.fail();
    return r.ok() ? rec : nullptr;
  }

  RecordPool<Bundle> bundles_;
  RecordPool<pki::Certificate> certs_;
  RecordPool<Verdict> verdicts_;
};

}  // namespace sos::bundle
