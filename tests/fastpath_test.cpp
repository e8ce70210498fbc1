// Fast-path behavior tests: the verified-bundle cache (hits, tamper
// misses, forged certificates, revocation override, LRU bound), the
// bundle store's O(log n) eviction index, and the scheduler's cancel
// bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bundle/store.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "crypto/verify_memo.hpp"
#include "mw/sos_node.hpp"
#include "pki/bootstrap.hpp"
#include "sim/multipeer.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace sb = sos::bundle;
namespace sc = sos::crypto;
namespace sm = sos::mw;
namespace sp = sos::pki;
namespace ss = sos::sim;
namespace su = sos::util;

namespace {

/// An AdHocManager with real credentials plus a second signed-up publisher
/// whose bundles it verifies.
struct VerifyRig {
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("verify-rig")};
  ss::MpcNetwork net{sched, 1};
  sp::DeviceCredentials verifier_creds;
  sp::DeviceCredentials publisher_creds;
  sm::NodeStats stats;
  sm::AdHocManager adhoc;

  VerifyRig()
      : verifier_creds([this] {
          sc::Drbg d(su::to_bytes("verifier-dev"));
          return *infra.signup("verifier", d, 0.0);
        }()),
        publisher_creds([this] {
          sc::Drbg d(su::to_bytes("publisher-dev"));
          return *infra.signup("publisher", d, 0.0);
        }()),
        adhoc(sched, net.endpoint(0), verifier_creds, stats) {}

  sb::Bundle make_bundle(std::uint32_t num, const std::string& text = "post") {
    sb::Bundle b;
    b.origin = publisher_creds.user_id;
    b.msg_num = num;
    b.creation_ts = sched.now();
    b.payload = su::to_bytes(text);
    b.sign(publisher_creds.signing_keypair);
    return b;
  }
};

}  // namespace

// --- verified-bundle cache ---------------------------------------------------

TEST(VerifyCache, ReReceptionSkipsSignatureCheck) {
  VerifyRig rig;
  auto b = rig.make_bundle(1);
  EXPECT_TRUE(rig.adhoc.verify_bundle(b, rig.publisher_creds.certificate));
  EXPECT_EQ(rig.stats.bundle_sig_cache_misses, 1u);
  EXPECT_EQ(rig.stats.bundle_sig_cache_hits, 0u);

  // Same bundle arrives again (epidemic re-reception): cache hit.
  EXPECT_TRUE(rig.adhoc.verify_bundle(b, rig.publisher_creds.certificate));
  EXPECT_EQ(rig.stats.bundle_sig_cache_hits, 1u);
  EXPECT_EQ(rig.stats.bundle_sig_cache_misses, 1u);
}

TEST(VerifyCache, TamperedReplayWithCachedIdIsRejected) {
  VerifyRig rig;
  auto b = rig.make_bundle(1, "genuine");
  EXPECT_TRUE(rig.adhoc.verify_bundle(b, rig.publisher_creds.certificate));

  // Attacker replays the cached id with different content: digest differs,
  // so the cache must not vouch for it and the signature check must fail.
  auto forged = b;
  forged.payload = su::to_bytes("forged!");
  EXPECT_FALSE(rig.adhoc.verify_bundle(forged, rig.publisher_creds.certificate));
  EXPECT_EQ(rig.stats.bundle_sig_rejected, 1u);
  EXPECT_EQ(rig.stats.bundle_sig_cache_hits, 0u);

  // The genuine bundle still hits the cache afterwards.
  EXPECT_TRUE(rig.adhoc.verify_bundle(b, rig.publisher_creds.certificate));
  EXPECT_EQ(rig.stats.bundle_sig_cache_hits, 1u);
}

TEST(VerifyCache, RevocationOverridesCache) {
  VerifyRig rig;
  auto b = rig.make_bundle(1);
  EXPECT_TRUE(rig.adhoc.verify_bundle(b, rig.publisher_creds.certificate));

  // Revoke the publisher after its bundle was cached: the policy half runs
  // on every reception, so the cache must not resurrect the bundle.
  rig.verifier_creds.trust.add_revoked(rig.publisher_creds.certificate.serial);
  EXPECT_FALSE(rig.adhoc.verify_bundle(b, rig.publisher_creds.certificate));
  EXPECT_EQ(rig.stats.bundle_cert_rejected, 1u);
}

TEST(VerifyCache, LruBoundEvictsOldestEntry) {
  VerifyRig rig;
  rig.adhoc.set_verify_cache_capacity(2);
  auto b1 = rig.make_bundle(1);
  auto b2 = rig.make_bundle(2);
  auto b3 = rig.make_bundle(3);
  const auto& cert = rig.publisher_creds.certificate;
  EXPECT_TRUE(rig.adhoc.verify_bundle(b1, cert));
  EXPECT_TRUE(rig.adhoc.verify_bundle(b2, cert));
  EXPECT_TRUE(rig.adhoc.verify_bundle(b3, cert));  // evicts b1
  EXPECT_EQ(rig.stats.bundle_sig_cache_misses, 3u);

  EXPECT_TRUE(rig.adhoc.verify_bundle(b1, cert));  // re-verified, not cached
  EXPECT_EQ(rig.stats.bundle_sig_cache_misses, 4u);
  EXPECT_TRUE(rig.adhoc.verify_bundle(b3, cert));  // still cached
  EXPECT_EQ(rig.stats.bundle_sig_cache_hits, 1u);
}

TEST(VerifyCache, ForgedCertBodyWithCopiedSignatureDoesNotAliasLegitimateCert) {
  // A certificate whose body was swapped (the attacker's key bound to the
  // publisher's id) but whose signature bytes were copied from the real
  // certificate must not inherit the real certificate's verdict, from the
  // node's verify cache or from a shared memo, in either arrival order.
  sc::Drbg attacker_rng(su::to_bytes("attacker"));
  auto attacker_keys = sc::Ed25519Keypair::from_seed(attacker_rng.generate_array<32>());
  for (bool shared_memo : {false, true}) {
    for (bool legit_first : {true, false}) {
      SCOPED_TRACE(std::string(shared_memo ? "memo, " : "no memo, ") +
                   (legit_first ? "legit first" : "forged first"));
      VerifyRig rig;
      sc::VerifyMemo memo;
      if (shared_memo) rig.adhoc.set_verify_memo(&memo);
      auto legit = rig.make_bundle(1);
      sp::Certificate forged_cert = rig.publisher_creds.certificate;  // copied signature
      forged_cert.subject_key = attacker_keys.public_key();           // swapped body
      sb::Bundle forged;
      forged.origin = rig.publisher_creds.user_id;  // claims the publisher's id
      forged.msg_num = 2;
      forged.payload = su::to_bytes("forged");
      forged.sign(attacker_keys);

      if (legit_first) {
        EXPECT_TRUE(rig.adhoc.verify_bundle(legit, rig.publisher_creds.certificate));
      }
      EXPECT_FALSE(rig.adhoc.verify_bundle(forged, forged_cert));
      EXPECT_EQ(rig.stats.bundle_cert_rejected, 1u);
      // The legitimate bundle is not dragged down by the forgery either.
      EXPECT_TRUE(rig.adhoc.verify_bundle(legit, rig.publisher_creds.certificate));
      // A second look at the forgery is still a rejection, not a cache hit.
      EXPECT_FALSE(rig.adhoc.verify_bundle(forged, forged_cert));
      EXPECT_EQ(rig.stats.bundle_cert_rejected, 2u);
      EXPECT_EQ(rig.stats.bundle_sig_rejected, 0u);
    }
  }
}

TEST(VerifyCache, ConcurrentDuplicateReceptionVerifiedOnce) {
  // Two relays serve bob the same bundle in one gathering: the second copy
  // is answered by the verify cache and then dropped as a duplicate, so
  // the signature work is paid once.
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("dup-infra")};
  ss::MpcNetwork net(sched, 4);
  sm::SosConfig config;
  config.scheme = "epidemic";
  config.maintenance_interval_s = 0;
  std::vector<std::unique_ptr<sm::SosNode>> nodes;
  for (int i = 0; i < 4; ++i) {
    sc::Drbg d(su::to_bytes("dup-" + std::to_string(i)));
    nodes.push_back(std::make_unique<sm::SosNode>(
        sched, net.endpoint(static_cast<ss::PeerId>(i)),
        *infra.signup("dup-user" + std::to_string(i), d, 0), config));
    nodes.back()->start();
  }
  sm::SosNode& bob = *nodes[3];
  bob.follow(nodes[0]->user_id());
  nodes[0]->publish(su::to_bytes("popular post"));

  // Relays 1 and 2 each pick up the post from the publisher.
  for (ss::PeerId relay : {1u, 2u}) {
    net.set_in_range(0, relay, true);
    sched.run_all();
    net.set_in_range(0, relay, false);
    sched.run_all();
  }
  ASSERT_TRUE(nodes[1]->store().contains({nodes[0]->user_id(), 1}));
  ASSERT_TRUE(nodes[2]->store().contains({nodes[0]->user_id(), 1}));

  // Bob meets both relays at once; each serves the bundle.
  net.set_in_range(3, 1, true);
  net.set_in_range(3, 2, true);
  sched.run_all();
  EXPECT_EQ(bob.stats().bundles_received, 2u);
  EXPECT_EQ(bob.stats().bundle_sig_cache_misses, 1u);  // verified exactly once
  EXPECT_EQ(bob.stats().bundle_sig_cache_hits, 1u);
  EXPECT_EQ(bob.stats().duplicates_ignored, 1u);
  EXPECT_EQ(bob.stats().deliveries, 1u);
}

// --- session resumption: wire-level rejection paths ---------------------------

namespace {

/// Two real SOS nodes plus a raw attacker endpoint on the same radio
/// network. The attacker can inject arbitrary bytes pre-handshake.
struct ResumeAttackRig {
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("resume-attack")};
  ss::MpcNetwork net{sched, 3};
  std::unique_ptr<sm::SosNode> alice;  // endpoint 0
  std::unique_ptr<sm::SosNode> bob;    // endpoint 1; endpoint 2 = attacker

  su::Bytes first_hello;  // alice -> bob Hello captured during priming

  ResumeAttackRig() {
    sc::Drbg da(su::to_bytes("ra-a")), db(su::to_bytes("ra-b"));
    sm::SosConfig config;
    config.maintenance_interval_s = 0;
    alice = std::make_unique<sm::SosNode>(sched, net.endpoint(0),
                                          *infra.signup("ra-alice", da, 0), config);
    bob = std::make_unique<sm::SosNode>(sched, net.endpoint(1),
                                        *infra.signup("ra-bob", db, 0), config);
    alice->start();
    bob->start();
    bob->follow(alice->user_id());
    alice->publish(su::to_bytes("post"));
    net.on_wire_frame = [this](ss::PeerId from, ss::PeerId to, const su::Bytes& w) {
      if (from == 0 && to == 1 && !w.empty() && w[0] == 0x01 && first_hello.empty())
        first_hello = w;
    };
    // One real contact mints the resumption secret on both sides.
    net.set_in_range(0, 1, true);
    sched.run_all();
    net.set_in_range(0, 1, false);
    sched.run_all();
    net.on_wire_frame = nullptr;
  }

  /// Connect the attacker endpoint to bob and inject one Resume frame.
  void inject_resume(const sm::ResumeFrame& frame) {
    net.endpoint(2).start_advertising(ss::DiscoveryInfo{});
    net.set_in_range(1, 2, true);
    net.endpoint(2).on_connected = [&, wire = frame](ss::PeerId peer) {
      su::Bytes bytes;
      bytes.push_back(0x03);  // kOuterResume
      su::append(bytes, wire.encode());
      net.endpoint(2).send(peer, std::move(bytes));
    };
    net.endpoint(2).invite(1);
    sched.run_all();
  }
};

}  // namespace

TEST(ResumeReject, ForgedProofUnderKnownFingerprintIsRejected) {
  ResumeAttackRig rig;
  ASSERT_EQ(rig.bob->stats().full_handshakes, 1u);

  // The attacker replays alice's identity (her certificate fingerprint is
  // public) but cannot compute the HMAC proof without the cached secret.
  sm::ResumeFrame forged;
  forged.fingerprint = sc::Sha256::hash(rig.alice->credentials().certificate.encode());
  forged.nonce.fill(0x41);
  forged.proof.fill(0x42);  // garbage proof
  rig.inject_resume(forged);

  EXPECT_EQ(rig.bob->stats().resume_rejected, 1u);
  EXPECT_EQ(rig.bob->stats().sessions_resumed, 0u);
  EXPECT_FALSE(rig.bob->adhoc().session_secure(2));
  // The legitimate resumption state survives the forgery attempt: alice
  // still resumes on her next contact.
  rig.net.set_in_range(1, 2, false);
  rig.net.set_in_range(0, 1, true);
  rig.sched.run_all();
  EXPECT_EQ(rig.bob->stats().sessions_resumed, 1u);
}

TEST(ResumeReject, UnknownFingerprintFallsBackToHello) {
  ResumeAttackRig rig;
  sm::ResumeFrame forged;
  forged.fingerprint.fill(0x99);  // no such identity in bob's cache
  forged.nonce.fill(0x41);
  forged.proof.fill(0x42);
  rig.inject_resume(forged);

  EXPECT_EQ(rig.bob->stats().resume_rejected, 1u);
  EXPECT_FALSE(rig.bob->adhoc().session_secure(2));
  // Bob answered with a Hello (full-handshake fallback), not silence.
  EXPECT_GE(rig.bob->stats().frames_sent, 1u);
}

TEST(ResumeReject, ReplayedHelloDoesNotKillLiveResumedSession) {
  // A Hello carries no freshness, so a captured one (genuine certificate
  // and binding signature) replays past every check in handle_hello. Once
  // sealed traffic has authenticated under the resumed keys, the replay
  // must be ignored — not tear the session down and wedge it on keys the
  // real peer no longer holds.
  ResumeAttackRig rig;
  ASSERT_FALSE(rig.first_hello.empty());  // captured during the priming contact

  // Second contact resumes; traffic flows under the resumed keys.
  rig.net.set_in_range(0, 1, true);
  rig.alice->publish(su::to_bytes("post 2"));
  rig.sched.run_all();
  ASSERT_EQ(rig.bob->stats().sessions_resumed, 1u);
  ASSERT_EQ(rig.bob->stats().deliveries, 2u);

  auto lost_before = rig.bob->stats().sessions_lost;
  rig.net.endpoint(0).send(1, rig.first_hello);  // replay the genuine Hello
  rig.sched.run_all();
  EXPECT_EQ(rig.bob->stats().sessions_lost, lost_before);  // session survived

  // The resumed session still carries traffic.
  rig.alice->publish(su::to_bytes("post 3"));
  rig.sched.run_all();
  EXPECT_EQ(rig.bob->stats().deliveries, 3u);
}

TEST(ResumeReject, TruncatedResumeFrameIsMalformed) {
  ResumeAttackRig rig;
  auto malformed_before = rig.bob->stats().malformed_frames;
  rig.net.endpoint(2).start_advertising(ss::DiscoveryInfo{});
  rig.net.set_in_range(1, 2, true);
  rig.net.endpoint(2).on_connected = [&](ss::PeerId peer) {
    rig.net.endpoint(2).send(peer, su::Bytes{0x03, 0x01, 0x02});  // truncated
  };
  rig.net.endpoint(2).invite(1);
  rig.sched.run_all();
  EXPECT_GT(rig.bob->stats().malformed_frames, malformed_before);
  EXPECT_FALSE(rig.bob->adhoc().session_secure(2));
}

// --- bundle store eviction index ---------------------------------------------

TEST(StoreEviction, RandomizedDropHeadMatchesCreationOrder) {
  // Insert shuffled creation timestamps past capacity; survivors must be
  // exactly the most recently created bundles at every step.
  sb::BundleStore store(16);
  std::vector<double> ts;
  for (int i = 0; i < 64; ++i) ts.push_back(static_cast<double>(i));
  su::Rng rng(77);
  for (std::size_t i = ts.size(); i > 1; --i)
    std::swap(ts[i - 1], ts[rng.next() % i]);

  sp::UserId origin = sp::user_id_from_name("writer");
  std::vector<std::pair<double, std::uint32_t>> inserted;  // (creation_ts, msg_num)
  for (std::uint32_t i = 0; i < 64; ++i) {
    sb::Bundle b;
    b.origin = origin;
    b.msg_num = i + 1;
    b.creation_ts = ts[i];
    b.payload = su::to_bytes("x");
    store.insert(std::move(b), 0.0);
    inserted.emplace_back(ts[i], i + 1);
    ASSERT_LE(store.size(), 16u);

    // Expected survivors: the capacity newest by creation_ts.
    std::sort(inserted.begin(), inserted.end());
    std::size_t keep_from = inserted.size() > 16 ? inserted.size() - 16 : 0;
    for (std::size_t j = 0; j < inserted.size(); ++j)
      EXPECT_EQ(store.contains({origin, inserted[j].second}), j >= keep_from)
          << "insert " << i << " entry " << j;
  }
  EXPECT_EQ(store.evicted_count(), 64u - 16u);
}

TEST(StoreEviction, IndexSurvivesRemoveAndExpire) {
  sb::BundleStore store(4);
  sp::UserId origin = sp::user_id_from_name("writer");
  auto mk = [&](std::uint32_t num, double ts, std::uint32_t lifetime = 0) {
    sb::Bundle b;
    b.origin = origin;
    b.msg_num = num;
    b.creation_ts = ts;
    b.lifetime_s = lifetime;
    return b;
  };
  store.insert(mk(1, 10.0), 0);
  store.insert(mk(2, 20.0, 5), 0);  // expires at t=25
  store.insert(mk(3, 30.0), 0);
  store.remove({origin, 1});
  EXPECT_EQ(store.expire(100.0), 1u);  // removes msg 2
  EXPECT_EQ(store.size(), 1u);

  // Refill past capacity: eviction must pick the true oldest remaining,
  // not a stale index entry for the removed/expired bundles.
  store.insert(mk(4, 5.0), 0);
  store.insert(mk(5, 40.0), 0);
  store.insert(mk(6, 50.0), 0);
  store.insert(mk(7, 60.0), 0);  // capacity 4 exceeded: evicts msg 4 (ts=5)
  EXPECT_EQ(store.size(), 4u);
  EXPECT_FALSE(store.contains({origin, 4}));
  EXPECT_TRUE(store.contains({origin, 3}));
  EXPECT_TRUE(store.contains({origin, 7}));
}

TEST(StoreQuery, NewerThanAtUint32MaxDoesNotWrap) {
  // `after + 1` at the UINT32_MAX boundary used to wrap to 0 and rescan the
  // origin's entire range as if everything were new.
  sb::BundleStore store(16);
  sp::UserId origin = sp::user_id_from_name("writer");
  for (std::uint32_t num : {1u, 2u, 3u}) {
    sb::Bundle b;
    b.origin = origin;
    b.msg_num = num;
    store.insert(std::move(b), 0.0);
  }
  EXPECT_EQ(std::ranges::distance(store.newer_than(origin, 0)), 3);
  EXPECT_EQ(std::ranges::distance(store.newer_than(origin, 2)), 1);
  EXPECT_TRUE(store.newer_than(origin, std::numeric_limits<std::uint32_t>::max()).empty());
}

// --- scheduler cancel bookkeeping --------------------------------------------

TEST(SchedulerCancel, StaleCancelLeavesNoBacklog) {
  ss::Scheduler sched;
  std::vector<ss::EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(sched.schedule_in(1.0, [] {}));
  sched.run_all();
  // Cancelling ids that already fired must not accumulate state.
  for (ss::EventId id : ids) sched.cancel(id);
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
}

TEST(SchedulerCancel, RunUntilDoesNotExecutePastHorizonThroughCancelledHead) {
  ss::Scheduler sched;
  int fired = 0;
  ss::EventId early = sched.schedule_in(5.0, [&] { ++fired; });
  sched.schedule_in(100.0, [&] { ++fired; });
  sched.cancel(early);
  // The cancelled head at t=5 must be discarded without pulling the t=100
  // event inside the horizon.
  sched.run_until(10.0);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sched.now(), 10.0);
  sched.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sched.now(), 100.0);
}

TEST(SchedulerCancel, PendingCancelStillWorksAndDrains) {
  ss::Scheduler sched;
  int fired = 0;
  ss::EventId keep = sched.schedule_in(1.0, [&] { ++fired; });
  ss::EventId drop = sched.schedule_in(2.0, [&] { ++fired; });
  sched.cancel(drop);
  sched.cancel(drop);  // double cancel is a no-op
  EXPECT_EQ(sched.cancelled_backlog(), 1u);
  sched.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
  sched.cancel(keep);  // stale
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
}
