// Bundle and store tests: wire round trips, signature semantics (hop count
// mutable, content immutable), TTL expiry, duplicate suppression, capacity
// eviction, and the two protocol queries (summary / newer_than).
#include <gtest/gtest.h>

#include <map>

#include "bundle/bundle.hpp"
#include "bundle/store.hpp"
#include "crypto/drbg.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace sb = sos::bundle;
namespace sp = sos::pki;
namespace sc = sos::crypto;
namespace su = sos::util;

namespace {
sc::Ed25519Keypair keys_for(const std::string& name) {
  sc::Drbg d(su::to_bytes("bundle-test-" + name));
  return sc::Ed25519Keypair::from_seed(d.generate_array<32>());
}

sb::Bundle make_bundle(const std::string& author, std::uint32_t num, double ts = 100.0,
                       const std::string& text = "post") {
  sb::Bundle b;
  b.origin = sp::user_id_from_name(author);
  b.msg_num = num;
  b.creation_ts = ts;
  b.lifetime_s = 0;
  b.payload = su::to_bytes(text);
  b.sign(keys_for(author));
  return b;
}
}  // namespace

TEST(Bundle, EncodeDecodeRoundTrip) {
  auto b = make_bundle("alice", 7, 123.5, "hello dtn");
  b.hop_count = 3;
  auto decoded = sb::Bundle::decode(b.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->origin, b.origin);
  EXPECT_EQ(decoded->msg_num, 7u);
  EXPECT_DOUBLE_EQ(decoded->creation_ts, 123.5);
  EXPECT_EQ(decoded->hop_count, 3);
  EXPECT_EQ(decoded->payload, b.payload);
  EXPECT_EQ(decoded->signature, b.signature);
}

TEST(Bundle, DecodeRejectsGarbage) {
  EXPECT_FALSE(sb::Bundle::decode(su::to_bytes("not a bundle")).has_value());
  auto enc = make_bundle("a", 1).encode();
  enc.pop_back();
  EXPECT_FALSE(sb::Bundle::decode(enc).has_value());
  enc = make_bundle("a", 1).encode();
  enc.push_back(0);  // trailing byte
  EXPECT_FALSE(sb::Bundle::decode(enc).has_value());
}

TEST(Bundle, DecodeRejectsBadContentType) {
  auto b = make_bundle("a", 1);
  auto enc = b.encode();
  // content type byte sits after origin(10) + msg_num(4) + ts(8) + lifetime(4)
  enc[26] = 0x7F;
  EXPECT_FALSE(sb::Bundle::decode(enc).has_value());
}

TEST(Bundle, SignatureVerifies) {
  auto b = make_bundle("alice", 1);
  EXPECT_TRUE(b.verify(keys_for("alice").public_key()));
  EXPECT_FALSE(b.verify(keys_for("bob").public_key()));
}

TEST(Bundle, TamperedPayloadFailsVerification) {
  auto b = make_bundle("alice", 1);
  b.payload = su::to_bytes("forged content");
  EXPECT_FALSE(b.verify(keys_for("alice").public_key()));
}

TEST(Bundle, HopCountMutableWithoutBreakingSignature) {
  // Forwarders increment hop_count; the origin signature must survive.
  auto b = make_bundle("alice", 1);
  b.hop_count = 5;
  EXPECT_TRUE(b.verify(keys_for("alice").public_key()));
}

TEST(Bundle, MetadataTamperFailsVerification) {
  auto key = keys_for("alice").public_key();
  auto b1 = make_bundle("alice", 1);
  b1.msg_num = 2;
  EXPECT_FALSE(b1.verify(key));
  auto b2 = make_bundle("alice", 1);
  b2.creation_ts += 1;
  EXPECT_FALSE(b2.verify(key));
  auto b3 = make_bundle("alice", 1);
  b3.dest = sp::user_id_from_name("bob");
  EXPECT_FALSE(b3.verify(key));
}

TEST(Bundle, ExpiryRule) {
  auto b = make_bundle("alice", 1, 100.0);
  b.lifetime_s = 60;
  EXPECT_FALSE(b.expired(100.0));
  EXPECT_FALSE(b.expired(160.0));
  EXPECT_TRUE(b.expired(160.1));
  b.lifetime_s = 0;  // no expiry
  EXPECT_FALSE(b.expired(1e12));
}

TEST(Bundle, UnicastFlag) {
  auto b = make_bundle("alice", 1);
  EXPECT_FALSE(b.is_unicast());
  b.dest = sp::user_id_from_name("bob");
  EXPECT_TRUE(b.is_unicast());
}

class BundleCodecSweep : public ::testing::TestWithParam<int> {};

TEST_P(BundleCodecSweep, RandomPayloadRoundTrip) {
  su::Rng rng(GetParam());
  sb::Bundle b;
  // Two-step concat: `"u" + std::to_string(...)` trips GCC 12's -Wrestrict
  // false positive (PR 105651) when inlined under -O2.
  std::string origin_name = "u";
  origin_name += std::to_string(GetParam());
  b.origin = sp::user_id_from_name(origin_name);
  b.msg_num = static_cast<std::uint32_t>(rng.next());
  b.creation_ts = rng.uniform(0, 1e6);
  b.lifetime_s = static_cast<std::uint32_t>(rng.below(100000));
  b.content = static_cast<sb::ContentType>(rng.below(3));
  b.hop_count = static_cast<std::uint8_t>(rng.below(256));
  b.payload.resize(rng.below(2048));
  for (auto& p : b.payload) p = static_cast<std::uint8_t>(rng.next());
  b.sign(keys_for("sweeper"));
  auto decoded = sb::Bundle::decode(b.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->encode(), b.encode());
  EXPECT_TRUE(decoded->verify(keys_for("sweeper").public_key()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BundleCodecSweep, ::testing::Range(0, 12));

// --- store ---------------------------------------------------------------

TEST(Store, InsertAndDuplicateSuppression) {
  sb::BundleStore store;
  EXPECT_TRUE(store.insert(make_bundle("alice", 1), 0));
  EXPECT_FALSE(store.insert(make_bundle("alice", 1), 1));  // dup id
  EXPECT_TRUE(store.insert(make_bundle("alice", 2), 2));
  EXPECT_TRUE(store.insert(make_bundle("bob", 1), 3));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.duplicate_count(), 1u);
}

TEST(Store, SummaryTracksLatestPerPublisher) {
  sb::BundleStore store;
  store.insert(make_bundle("alice", 1), 0);
  store.insert(make_bundle("alice", 5), 0);
  store.insert(make_bundle("alice", 3), 0);
  store.insert(make_bundle("bob", 2), 0);
  auto s = store.summary();
  EXPECT_EQ(s.at(sp::user_id_from_name("alice")), 5u);
  EXPECT_EQ(s.at(sp::user_id_from_name("bob")), 2u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Store, NewerThanRangeScan) {
  sb::BundleStore store;
  for (std::uint32_t i = 1; i <= 10; ++i) store.insert(make_bundle("alice", i), 0);
  store.insert(make_bundle("bob", 99), 0);
  // The range is read in place, keyed by id, and stops where the next
  // publisher's bundles begin.
  std::vector<std::uint32_t> nums;
  for (const auto& [id, stored] : store.newer_than(sp::user_id_from_name("alice"), 7)) {
    EXPECT_EQ(id, stored.bundle.id());
    nums.push_back(stored.bundle.msg_num);
  }
  EXPECT_EQ(nums, (std::vector<std::uint32_t>{8, 9, 10}));
  EXPECT_TRUE(store.newer_than(sp::user_id_from_name("alice"), 10).empty());
  // Zero means "send everything".
  EXPECT_EQ(std::ranges::distance(store.newer_than(sp::user_id_from_name("alice"), 0)), 10);
}

TEST(Store, NewerThanUnknownUserIsEmpty) {
  sb::BundleStore store;
  store.insert(make_bundle("alice", 1), 0);
  EXPECT_TRUE(store.newer_than(sp::user_id_from_name("nobody"), 0).empty());
}

TEST(Store, ExpireRemovesOnlyExpired) {
  sb::BundleStore store;
  auto fresh = make_bundle("alice", 1, 1000.0);
  auto stale = make_bundle("alice", 2, 0.0);
  stale.lifetime_s = 10;
  stale.sign(keys_for("alice"));
  store.insert(fresh, 1000);
  store.insert(stale, 1000);
  EXPECT_EQ(store.expire(1000.0), 1u);
  EXPECT_TRUE(store.contains({sp::user_id_from_name("alice"), 1}));
  EXPECT_FALSE(store.contains({sp::user_id_from_name("alice"), 2}));
}

TEST(Store, CapacityEvictsOldestCreation) {
  sb::BundleStore store(3);
  store.insert(make_bundle("a", 1, 100.0), 0);
  store.insert(make_bundle("a", 2, 50.0), 0);  // oldest creation
  store.insert(make_bundle("a", 3, 200.0), 0);
  store.insert(make_bundle("a", 4, 150.0), 0);  // forces eviction
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.contains({sp::user_id_from_name("a"), 2}));
  EXPECT_EQ(store.evicted_count(), 1u);
}

TEST(Store, GetAndRemove) {
  sb::BundleStore store;
  store.insert(make_bundle("alice", 1, 100.0, "payload-x"), 0);
  auto got = store.get({sp::user_id_from_name("alice"), 1});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(su::to_string(got->payload), "payload-x");
  store.remove({sp::user_id_from_name("alice"), 1});
  EXPECT_FALSE(store.get({sp::user_id_from_name("alice"), 1}).has_value());
}

TEST(Store, AllIteratesEverything) {
  sb::BundleStore store;
  for (std::uint32_t i = 1; i <= 5; ++i) store.insert(make_bundle("alice", i), 7.0);
  auto all = store.all();
  EXPECT_EQ(all.size(), 5u);
  for (const auto* s : all) EXPECT_DOUBLE_EQ(s->received_at, 7.0);
}

// --- store vs a brute-force model -------------------------------------------
// Randomized insert/remove/evict/expire/clear/checkpoint sequences with mixed
// lifetimes (0 included) must leave the store indistinguishable from a plain
// map that scans everything: contents, summary(), unicast_count(), the
// lifetime counters and every expire() return value.

namespace {

struct StoreModel {
  std::size_t capacity = 0;
  std::map<sb::BundleId, sb::Bundle> held;
  std::uint64_t evicted = 0;
  std::uint64_t duplicates = 0;

  bool insert(const sb::Bundle& b) {
    if (!held.emplace(b.id(), b).second) {
      ++duplicates;
      return false;
    }
    while (held.size() > capacity) {
      // Drop-head: the oldest creation time, ties broken by id.
      auto oldest = held.begin();
      for (auto it = held.begin(); it != held.end(); ++it)
        if (it->second.creation_ts < oldest->second.creation_ts) oldest = it;
      held.erase(oldest);
      ++evicted;
    }
    return true;
  }

  std::size_t expire(double now) {
    return std::erase_if(held, [now](const auto& kv) { return kv.second.expired(now); });
  }
};

void expect_store_matches(const sb::BundleStore& store, const StoreModel& model) {
  ASSERT_EQ(store.size(), model.held.size());
  auto all = store.all();
  std::map<sp::UserId, std::uint32_t> summary;
  std::size_t unicast = 0;
  std::size_t k = 0;
  for (const auto& [id, b] : model.held) {
    EXPECT_EQ(all[k]->bundle.id(), id);
    EXPECT_EQ(all[k]->bundle.encode(), b.encode());
    ++k;
    auto& max = summary[id.origin];
    if (id.msg_num > max) max = id.msg_num;
    if (b.is_unicast()) ++unicast;
  }
  EXPECT_EQ(store.summary(), summary);
  EXPECT_EQ(store.unicast_count(), unicast);
  EXPECT_EQ(store.evicted_count(), model.evicted);
  EXPECT_EQ(store.duplicate_count(), model.duplicates);
}

}  // namespace

TEST(Store, RandomizedOpsMatchBruteForceModel) {
  const char* authors[] = {"ann", "bob", "cy", "dee"};
  const std::uint32_t lifetimes[] = {0, 0, 5, 40, 200};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    su::Rng rng(seed);
    const std::size_t capacity = 6 + rng.below(10);
    sb::BundleStore store(capacity);
    StoreModel model;
    model.capacity = capacity;
    double now = 0.0;
    for (int step = 0; step < 600; ++step) {
      now += static_cast<double>(rng.below(4));
      const std::uint64_t op = rng.below(100);
      if (op < 50) {
        sb::Bundle b;
        b.origin = sp::user_id_from_name(authors[rng.below(4)]);
        b.msg_num = 1 + static_cast<std::uint32_t>(rng.below(12));
        // Coarse creation times: ties in both the creation and the
        // deadline order.
        b.creation_ts = now - 10.0 * static_cast<double>(rng.below(5));
        b.lifetime_s = lifetimes[rng.below(5)];
        if (rng.below(4) == 0) b.dest = sp::user_id_from_name("dest");
        b.hop_count = static_cast<std::uint8_t>(rng.below(3));
        b.payload = su::to_bytes("p" + std::to_string(step));
        EXPECT_EQ(store.insert(b, now), model.insert(b));
      } else if (op < 65) {
        sb::BundleId id{sp::user_id_from_name(authors[rng.below(4)]),
                        1 + static_cast<std::uint32_t>(rng.below(12))};
        store.remove(id);
        model.held.erase(id);
      } else if (op < 88) {
        EXPECT_EQ(store.expire(now), model.expire(now)) << "seed " << seed << " step " << step;
      } else if (op < 90) {
        store.clear();
        model.held.clear();
      } else {
        // A checkpoint round trip into a fresh store must rebuild every
        // index, the deadline index included.
        su::Writer w;
        sb::RecordTable::save(w, [&](su::Writer& out, sb::RecordTable& records) {
          store.save_state(out, records);
        });
        sb::BundleStore restored(capacity);
        su::Reader r(w.data());
        sb::RecordTable records;
        ASSERT_TRUE(records.load(r));
        ASSERT_TRUE(restored.load_state(r, records));
        ASSERT_TRUE(r.done());
        store = std::move(restored);
      }
      expect_store_matches(store, model);
      if (HasFailure()) return;
    }
  }
}

TEST(Store, LoadStateRejectsRepeatedBundle) {
  // A save_state payload holding its one table bundle twice.
  const sb::Bundle b = make_bundle("alice", 1, 100.0);
  su::Writer twice;
  sb::RecordTable::save(twice, [&](su::Writer& out, sb::RecordTable& records) {
    out.varint(2);
    for (int i = 0; i < 2; ++i) {
      records.put(out, b);
      su::put(out, b.hop_count, 0.0, std::uint8_t{0});
    }
    su::put(out, std::uint64_t{0}, std::uint64_t{0});
  });
  su::Reader r(twice.data());
  sb::RecordTable records;
  ASSERT_TRUE(records.load(r));
  sb::BundleStore restored;
  EXPECT_FALSE(restored.load_state(r, records));
  EXPECT_EQ(restored.size(), 0u);
}
