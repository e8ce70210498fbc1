// Bundle store: per-device persistent buffer of carried bundles. Provides
// the two queries the SOS protocol needs — the advertisement summary
// (UserID -> latest MessageNumber, Fig 2b) and "everything from user U
// newer than sequence N" (the request a browsing node sends). Handles
// duplicate suppression, TTL expiry and capacity eviction.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ranges>
#include <set>
#include <vector>

#include "bundle/bundle.hpp"
#include "bundle/records.hpp"

namespace sos::bundle {

struct StoredBundle {
  Bundle bundle;
  util::SimTime received_at = 0;
  std::uint8_t hops_on_arrival = 0;
};

class BundleStore {
 public:
  /// Held bundles keyed by id, so in (origin, msg_num) order.
  using Held = std::map<BundleId, StoredBundle>;
  /// A run of held (id, stored bundle) entries, borrowed from the store:
  /// valid until the store next changes (see generation()).
  using HeldRange = std::ranges::subrange<Held::const_iterator>;

  explicit BundleStore(std::size_t capacity = 10000) : capacity_(capacity) {}

  /// Insert if new; returns false for duplicates (same origin + msg_num).
  bool insert(Bundle b, util::SimTime now);

  bool contains(const BundleId& id) const;
  std::optional<Bundle> get(const BundleId& id) const;
  /// The held copy of `id`, borrowed like a HeldRange (nullptr if absent).
  const StoredBundle* find(const BundleId& id) const;
  std::size_t size() const { return bundles_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Highest message number held per publisher — the plain-text
  /// advertisement dictionary content. Maintained incrementally on
  /// insert/remove/expire/evict: routing schemes query it on every
  /// forwarding decision, and rebuilding it per call dominated dense
  /// scenario sweeps.
  const std::map<pki::UserId, std::uint32_t>& summary() const { return summary_; }

  /// Unicast bundles currently held (lets advertisement builders skip the
  /// full-store unicast scan in the common all-pub/sub workload).
  std::size_t unicast_count() const { return unicast_count_; }

  /// All bundles from `origin` with msg_num > after, ascending, walked in
  /// place: request serving touches only the bundles it actually sends.
  HeldRange newer_than(const pki::UserId& origin, std::uint32_t after) const;

  /// Bumped by every change to the held set. A caller walking a HeldRange
  /// (or holding a find() pointer) checks it to prove nothing it calls
  /// changed the store underneath the walk.
  std::uint64_t generation() const { return generation_; }

  /// Every held bundle (routing schemes iterate for forwarding decisions).
  std::vector<const StoredBundle*> all() const;

  /// Drop bundles whose lifetime elapsed (Bundle::expired); returns the
  /// number removed. Pops due entries off the deadline index, so a store
  /// holding only lifetime-0 bundles pays nothing.
  std::size_t expire(util::SimTime now);

  void remove(const BundleId& id);
  std::uint64_t evicted_count() const { return evicted_; }
  std::uint64_t duplicate_count() const { return duplicates_; }

  /// Reboot-with-store-loss: drop every held bundle and index entry. The
  /// eviction/duplicate counters survive — they are lifetime statistics,
  /// not store contents.
  void clear() {
    ++generation_;
    bundles_.clear();
    by_creation_.clear();
    by_deadline_.clear();
    summary_.clear();
    unicast_count_ = 0;
  }

  /// Checkpoint contents + lifetime counters (capacity is configuration and
  /// stays with the owner). Each held copy is its bundle body's index in
  /// the payload's record table, then its hop count, receive time and
  /// hops on arrival. load_state rebuilds every secondary index from the
  /// restored bundles; on malformed input it returns false leaving the
  /// store untouched.
  void save_state(util::Writer& w, RecordTable& records) const;
  bool load_state(util::Reader& r, const RecordTable& records);

 private:
  void evict_if_needed();
  /// Re-derive one publisher's summary entry after a removal (O(log n):
  /// BundleId ordering is (origin, msg_num), so the surviving max is the
  /// last element of the origin's range).
  void refresh_summary(const pki::UserId& origin);
  /// Drop one held bundle and its entries in every secondary index.
  void erase(Held::iterator it);

  using TimeIndex = std::set<std::pair<util::SimTime, BundleId>>;

  Held bundles_;
  // Secondary index ordered by creation time: drop-head eviction pops the
  // oldest bundle in O(log n) instead of scanning the whole store.
  TimeIndex by_creation_;
  // Expiry deadlines (creation_ts + lifetime_s) of the bundles that can
  // expire; lifetime-0 bundles are never entered.
  TimeIndex by_deadline_;
  std::map<pki::UserId, std::uint32_t> summary_;
  std::size_t unicast_count_ = 0;
  std::size_t capacity_;
  std::uint64_t evicted_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t generation_ = 0;  // not state: never saved or compared
};

}  // namespace sos::bundle
