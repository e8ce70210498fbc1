#include "bundle/store.hpp"

#include <cmath>
#include <limits>

namespace sos::bundle {

namespace {

// The instant after which Bundle::expired(now) holds — the same sum and
// the same strict comparison (expired iff deadline < now). Lifetime-0
// bundles never expire; neither does a NaN deadline (every comparison with
// it is false), which also must not enter an ordered index.
std::optional<util::SimTime> expiry_deadline(const Bundle& b) {
  if (b.lifetime_s == 0) return std::nullopt;
  util::SimTime deadline = b.creation_ts + static_cast<double>(b.lifetime_s);
  if (std::isnan(deadline)) return std::nullopt;
  return deadline;
}

}  // namespace

bool BundleStore::insert(Bundle b, util::SimTime now) {
  BundleId id = b.id();
  if (bundles_.count(id) > 0) {
    ++duplicates_;
    return false;
  }
  ++generation_;
  StoredBundle stored{std::move(b), now, 0};
  stored.hops_on_arrival = stored.bundle.hop_count;
  if (stored.bundle.is_unicast()) ++unicast_count_;
  by_creation_.emplace(stored.bundle.creation_ts, id);
  if (auto deadline = expiry_deadline(stored.bundle)) by_deadline_.emplace(*deadline, id);
  bundles_.emplace(id, std::move(stored));
  auto& held = summary_[id.origin];
  if (id.msg_num > held) held = id.msg_num;
  evict_if_needed();
  return true;
}

bool BundleStore::contains(const BundleId& id) const {
  return bundles_.count(id) > 0;
}

std::optional<Bundle> BundleStore::get(const BundleId& id) const {
  const StoredBundle* stored = find(id);
  if (stored == nullptr) return std::nullopt;
  return stored->bundle;
}

const StoredBundle* BundleStore::find(const BundleId& id) const {
  auto it = bundles_.find(id);
  return it == bundles_.end() ? nullptr : &it->second;
}

void BundleStore::refresh_summary(const pki::UserId& origin) {
  // Everything from `origin` sits in one contiguous bundles_ range; its
  // last element (if any) holds the surviving maximum message number.
  auto next = bundles_.lower_bound(
      BundleId{origin, std::numeric_limits<std::uint32_t>::max()});
  if (next != bundles_.end() && next->first.origin == origin) {
    summary_[origin] = next->first.msg_num;
    return;
  }
  if (next != bundles_.begin()) {
    auto last = std::prev(next);
    if (last->first.origin == origin) {
      summary_[origin] = last->first.msg_num;
      return;
    }
  }
  summary_.erase(origin);
}

void BundleStore::erase(Held::iterator it) {
  ++generation_;
  const BundleId id = it->first;
  const Bundle& b = it->second.bundle;
  by_creation_.erase({b.creation_ts, id});
  if (auto deadline = expiry_deadline(b)) by_deadline_.erase({*deadline, id});
  if (b.is_unicast()) --unicast_count_;
  bundles_.erase(it);
  refresh_summary(id.origin);
}

BundleStore::HeldRange BundleStore::newer_than(const pki::UserId& origin,
                                               std::uint32_t after) const {
  // Nothing can be newer than the maximum message number — and `after + 1`
  // would wrap to 0 and rescan the origin's whole range.
  if (after == std::numeric_limits<std::uint32_t>::max()) return {bundles_.end(), bundles_.end()};
  // BundleId ordering is (origin, msg_num): the origin's bundles above
  // `after` are one contiguous run, ending where the next origin starts.
  auto first = bundles_.lower_bound(BundleId{origin, after + 1});
  auto last = first;
  if (first != bundles_.end() && first->first.origin == origin)
    last = bundles_.upper_bound(BundleId{origin, std::numeric_limits<std::uint32_t>::max()});
  return {first, last};
}

std::vector<const StoredBundle*> BundleStore::all() const {
  std::vector<const StoredBundle*> out;
  out.reserve(bundles_.size());
  for (const auto& [id, stored] : bundles_) out.push_back(&stored);
  return out;
}

std::size_t BundleStore::expire(util::SimTime now) {
  std::size_t removed = 0;
  while (!by_deadline_.empty() && by_deadline_.begin()->first < now) {
    erase(bundles_.find(by_deadline_.begin()->second));
    ++removed;
  }
  return removed;
}

void BundleStore::remove(const BundleId& id) {
  auto it = bundles_.find(id);
  if (it != bundles_.end()) erase(it);
}

void BundleStore::save_state(util::Writer& w, RecordTable& records) const {
  w.varint(bundles_.size());
  for (const auto& [id, stored] : bundles_) {
    records.put(w, stored.bundle);
    util::put(w, stored.bundle.hop_count, stored.received_at, stored.hops_on_arrival);
  }
  util::put(w, evicted_, duplicates_);
}

bool BundleStore::load_state(util::Reader& r, const RecordTable& records) {
  std::uint64_t n = r.count();
  Held bundles;
  TimeIndex by_creation;
  TimeIndex by_deadline;
  std::map<pki::UserId, std::uint32_t> summary;
  std::size_t unicast = 0;
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const Bundle* body = records.bundle(r);
    std::uint8_t hop_count = 0;
    StoredBundle stored;
    util::get(r, hop_count, stored.received_at, stored.hops_on_arrival);
    if (!r.ok()) return false;
    stored.bundle = *body;
    stored.bundle.hop_count = hop_count;
    const Bundle& b = stored.bundle;
    BundleId id = b.id();
    // A repeated id cannot come from save_state (bundles_ is keyed by id),
    // and would leave index entries naming no held bundle.
    if (bundles.count(id) > 0) return false;
    if (b.is_unicast()) ++unicast;
    by_creation.emplace(b.creation_ts, id);
    if (auto deadline = expiry_deadline(b)) by_deadline.emplace(*deadline, id);
    auto& held = summary[id.origin];
    if (id.msg_num > held) held = id.msg_num;
    bundles.emplace(id, std::move(stored));
  }
  std::uint64_t evicted = 0;
  std::uint64_t duplicates = 0;
  util::get(r, evicted, duplicates);
  if (!r.ok()) return false;
  ++generation_;
  bundles_ = std::move(bundles);
  by_creation_ = std::move(by_creation);
  by_deadline_ = std::move(by_deadline);
  summary_ = std::move(summary);
  unicast_count_ = unicast;
  evicted_ = evicted;
  duplicates_ = duplicates;
  return true;
}

void BundleStore::evict_if_needed() {
  while (bundles_.size() > capacity_) {
    // Evict the oldest bundle by creation time (drop-head policy); the
    // creation-time index makes this O(log n) per eviction.
    auto oldest = by_creation_.begin();
    auto it = bundles_.find(oldest->second);
    if (it != bundles_.end()) {
      erase(it);
    } else {
      by_creation_.erase(oldest);
    }
    ++evicted_;
  }
}

}  // namespace sos::bundle
