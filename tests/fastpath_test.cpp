// Fast-path behavior tests for this PR's perf work: the verified-bundle
// cache (hits, tamper misses, revocation override, LRU bound), the batch
// bundle-verification path, the message manager's verification window, the
// bundle store's O(log n) eviction index, and the scheduler's cancel
// bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "bundle/store.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
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

// --- batch bundle verification ----------------------------------------------

TEST(VerifyBatch, AllValidVerifiedInOnePass) {
  VerifyRig rig;
  std::vector<sb::Bundle> bundles;
  for (std::uint32_t i = 1; i <= 4; ++i) bundles.push_back(rig.make_bundle(i));
  std::vector<sm::AdHocManager::BundleToVerify> batch;
  for (const auto& b : bundles) batch.push_back({&b, &rig.publisher_creds.certificate});

  auto ok = rig.adhoc.verify_bundles(batch);
  EXPECT_TRUE(std::all_of(ok.begin(), ok.end(), [](bool v) { return v; }));
  EXPECT_EQ(rig.stats.bundle_batch_verifies, 1u);
  EXPECT_EQ(rig.stats.bundle_batch_fallbacks, 0u);

  // Everything verified in the batch is now cached.
  EXPECT_TRUE(rig.adhoc.verify_bundle(bundles[0], rig.publisher_creds.certificate));
  EXPECT_EQ(rig.stats.bundle_sig_cache_hits, 1u);
}

TEST(VerifyBatch, CorruptedBundleIsIsolated) {
  VerifyRig rig;
  std::vector<sb::Bundle> bundles;
  for (std::uint32_t i = 1; i <= 4; ++i) bundles.push_back(rig.make_bundle(i));
  bundles[2].payload = su::to_bytes("tampered in flight");  // signature now wrong
  std::vector<sm::AdHocManager::BundleToVerify> batch;
  for (const auto& b : bundles) batch.push_back({&b, &rig.publisher_creds.certificate});

  auto ok = rig.adhoc.verify_bundles(batch);
  ASSERT_EQ(ok.size(), 4u);
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
  EXPECT_FALSE(ok[2]);
  EXPECT_TRUE(ok[3]);
  EXPECT_EQ(rig.stats.bundle_batch_fallbacks, 1u);
  EXPECT_EQ(rig.stats.bundle_sig_rejected, 1u);
}

TEST(VerifyBatch, ForgedCertBodyWithCopiedSignatureDoesNotAliasLegitimateCert) {
  // Attack on the batch cert dedup: a certificate whose body was swapped
  // (attacker's key bound to the publisher's id) but whose signature bytes
  // were copied from the real certificate must not inherit the real
  // certificate's batch verdict.
  VerifyRig rig;
  auto legit = rig.make_bundle(1);

  sc::Drbg attacker_rng(su::to_bytes("attacker"));
  auto attacker_keys = sc::Ed25519Keypair::from_seed(attacker_rng.generate_array<32>());
  sp::Certificate forged_cert = rig.publisher_creds.certificate;  // copied signature
  forged_cert.subject_key = attacker_keys.public_key();           // swapped body
  sb::Bundle forged;
  forged.origin = rig.publisher_creds.user_id;  // claims the publisher's id
  forged.msg_num = 2;
  forged.payload = su::to_bytes("forged");
  forged.sign(attacker_keys);

  // Legit first so the forged cert would alias onto its verdict if dedup
  // keyed on signature bytes alone.
  std::vector<sm::AdHocManager::BundleToVerify> batch = {
      {&legit, &rig.publisher_creds.certificate}, {&forged, &forged_cert}};
  auto ok = rig.adhoc.verify_bundles(batch);
  EXPECT_TRUE(ok[0]);
  EXPECT_FALSE(ok[1]);
  EXPECT_EQ(rig.stats.bundle_cert_rejected, 1u);

  // Reverse order: the legitimate bundle must not be dragged down either.
  VerifyRig rig2;
  auto legit2 = rig2.make_bundle(1);
  sp::Certificate forged2 = rig2.publisher_creds.certificate;
  forged2.subject_key = attacker_keys.public_key();
  sb::Bundle fb2 = forged;
  std::vector<sm::AdHocManager::BundleToVerify> batch2 = {
      {&fb2, &forged2}, {&legit2, &rig2.publisher_creds.certificate}};
  auto ok2 = rig2.adhoc.verify_bundles(batch2);
  EXPECT_FALSE(ok2[0]);
  EXPECT_TRUE(ok2[1]);
}

TEST(VerifyBatch, IntraBatchDuplicatesVerifiedOnce) {
  // The same bundle pulled from two peers in one burst: the duplicate must
  // ride the first occurrence's verdict, not pay a second verification.
  VerifyRig rig;
  auto b1 = rig.make_bundle(1);
  auto b2 = rig.make_bundle(2);
  const auto& cert = rig.publisher_creds.certificate;
  std::vector<sm::AdHocManager::BundleToVerify> batch = {
      {&b1, &cert}, {&b2, &cert}, {&b1, &cert}};  // b1 twice
  auto ok = rig.adhoc.verify_bundles(batch);
  EXPECT_TRUE(ok[0] && ok[1] && ok[2]);
  EXPECT_EQ(rig.stats.bundle_sig_cache_misses, 2u);  // b1, b2 verified once each
  EXPECT_EQ(rig.stats.bundle_sig_cache_hits, 1u);    // duplicate b1 suppressed
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

// --- message manager verification window -------------------------------------

TEST(VerifyWindow, BurstIsBatchVerifiedEndToEnd) {
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("window-infra")};
  ss::MpcNetwork net(sched, 2);
  sm::SosConfig config;
  config.maintenance_interval_s = 0;
  config.verify_batch_window_s = 0.5;  // collect the burst, verify once
  sc::Drbg d0(su::to_bytes("w-0")), d1(su::to_bytes("w-1"));
  sm::SosNode alice(sched, net.endpoint(0), *infra.signup("w-alice", d0, 0), config);
  sm::SosNode bob(sched, net.endpoint(1), *infra.signup("w-bob", d1, 0), config);
  std::vector<std::string> got;
  bob.on_data = [&](const sb::Bundle& b, const sp::Certificate&) {
    got.push_back(su::to_string(b.payload));
  };
  alice.start();
  bob.start();
  bob.follow(alice.user_id());
  for (int i = 1; i <= 5; ++i) alice.publish(su::to_bytes("post " + std::to_string(i)));

  net.set_in_range(0, 1, true);
  sched.run_all();

  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0], "post 1");
  EXPECT_EQ(got[4], "post 5");
  // The burst went through the batch path, in fewer passes than bundles.
  EXPECT_GE(bob.stats().bundle_batch_verifies, 1u);
  EXPECT_LT(bob.stats().bundle_batch_verifies, 5u);
  EXPECT_EQ(bob.stats().bundle_batch_fallbacks, 0u);
  EXPECT_EQ(bob.stats().deliveries, 5u);
}

TEST(VerifyWindow, SessionDropPurgesPendingVerifications) {
  // Bundles waiting in the verify queue when their session drops must not
  // be delivered against a dead PeerId: they are dropped and counted as
  // interrupted, then recovered on the next encounter.
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("drop-infra")};
  ss::MpcNetwork net(sched, 2);
  sm::SosConfig config;
  config.maintenance_interval_s = 0;
  config.verify_batch_window_s = 30.0;  // long window: the cut wins the race
  sc::Drbg d0(su::to_bytes("dr-0")), d1(su::to_bytes("dr-1"));
  sm::SosNode alice(sched, net.endpoint(0), *infra.signup("dr-alice", d0, 0), config);
  sm::SosNode bob(sched, net.endpoint(1), *infra.signup("dr-bob", d1, 0), config);
  alice.start();
  bob.start();
  bob.follow(alice.user_id());
  for (int i = 1; i <= 3; ++i) alice.publish(su::to_bytes("post " + std::to_string(i)));

  net.set_in_range(0, 1, true);
  // Handshake + summary + request + bundle arrival all happen within a few
  // seconds; the 30 s verify window is still open when the link breaks.
  sched.run_until(sched.now() + 10.0);
  ASSERT_EQ(bob.stats().bundles_received, 3u);  // queued, not yet verified
  ASSERT_EQ(bob.stats().deliveries, 0u);
  net.set_in_range(0, 1, false);
  sched.run_all();  // the scheduled flush fires on an empty queue
  EXPECT_EQ(bob.stats().deliveries, 0u);
  EXPECT_EQ(bob.stats().transfers_interrupted, 3u);

  // Next encounter recovers everything via the normal pull protocol.
  net.set_in_range(0, 1, true);
  sched.run_all();
  EXPECT_EQ(bob.stats().deliveries, 3u);
  EXPECT_EQ(bob.stats().duplicates_ignored, 0u);
}

TEST(VerifyWindow, DuplicateArrivalsWithinWindowVerifiedOnce) {
  // Two relays offer bob the same bundle in one burst: the second copy must
  // be deduplicated at enqueue time, paying zero additional verification.
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("dup-infra")};
  ss::MpcNetwork net(sched, 4);
  sm::SosConfig config;
  config.scheme = "epidemic";
  config.maintenance_interval_s = 0;
  config.verify_batch_window_s = 5.0;
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

  // Bob meets both relays at once: both serve the same bundle within one
  // verify window.
  net.set_in_range(3, 1, true);
  net.set_in_range(3, 2, true);
  sched.run_all();
  EXPECT_EQ(bob.stats().bundles_received, 2u);
  EXPECT_EQ(bob.stats().duplicates_ignored, 1u);   // dropped at enqueue
  EXPECT_EQ(bob.stats().bundle_sig_cache_misses, 1u);  // verified exactly once
  EXPECT_EQ(bob.stats().deliveries, 1u);
}

TEST(VerifyWindow, DroppedSessionHandsQueueEntryToRidingPeer) {
  // Bundle X arrives from relay 1 and is deduplicated when relay 2 offers
  // it too; if relay 1's session then drops before the flush, the queue
  // entry must be handed to relay 2 (still connected) instead of dropped.
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("ride-infra")};
  ss::MpcNetwork net(sched, 4);
  sm::SosConfig config;
  config.scheme = "epidemic";
  config.maintenance_interval_s = 0;
  config.verify_batch_window_s = 30.0;
  std::vector<std::unique_ptr<sm::SosNode>> nodes;
  for (int i = 0; i < 4; ++i) {
    sc::Drbg d(su::to_bytes("ride-" + std::to_string(i)));
    nodes.push_back(std::make_unique<sm::SosNode>(
        sched, net.endpoint(static_cast<ss::PeerId>(i)),
        *infra.signup("ride-user" + std::to_string(i), d, 0), config));
    nodes.back()->start();
  }
  sm::SosNode& bob = *nodes[3];
  bob.follow(nodes[0]->user_id());
  nodes[0]->publish(su::to_bytes("handed over"));
  for (ss::PeerId relay : {1u, 2u}) {
    net.set_in_range(0, relay, true);
    sched.run_all();
    net.set_in_range(0, relay, false);
    sched.run_all();
  }

  net.set_in_range(3, 1, true);
  net.set_in_range(3, 2, true);
  sched.run_until(sched.now() + 10.0);  // both copies queued, flush pending
  ASSERT_EQ(bob.stats().bundles_received, 2u);
  ASSERT_EQ(bob.stats().duplicates_ignored, 1u);
  ASSERT_EQ(bob.stats().deliveries, 0u);

  net.set_in_range(3, 1, false);  // the leader's session drops
  sched.run_all();                // flush delivers via relay 2's entry
  EXPECT_EQ(bob.stats().deliveries, 1u);
  EXPECT_EQ(bob.stats().transfers_interrupted, 0u);
}

TEST(VerifyWindow, DestroyingManagerCancelsScheduledFlush) {
  // A scheduled flush captures the MessageManager; destroying the node with
  // the flush pending must cancel the event, not leave a dangling callback.
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("dtor-infra")};
  ss::MpcNetwork net(sched, 2);
  sm::SosConfig config;
  config.maintenance_interval_s = 0;
  config.verify_batch_window_s = 30.0;
  sc::Drbg d0(su::to_bytes("dt-0")), d1(su::to_bytes("dt-1"));
  auto alice = std::make_unique<sm::SosNode>(sched, net.endpoint(0),
                                             *infra.signup("dt-alice", d0, 0), config);
  auto bob = std::make_unique<sm::SosNode>(sched, net.endpoint(1),
                                           *infra.signup("dt-bob", d1, 0), config);
  alice->start();
  bob->start();
  bob->follow(alice->user_id());
  alice->publish(su::to_bytes("pending"));
  net.set_in_range(0, 1, true);
  sched.run_until(sched.now() + 10.0);
  ASSERT_EQ(bob->stats().bundles_received, 1u);  // flush still pending

  bob.reset();  // destroys the MessageManager with the flush scheduled
  alice.reset();
  sched.run_all();  // must not fire the dangling flush (use-after-free)
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
}

TEST(VerifyWindow, AdaptiveFlushDeliversOnSessionDrop) {
  // The adaptive window closes the classic window's failure mode: entries
  // whose session drops mid-window are verified and delivered on the spot
  // (the bytes arrived intact) instead of dying with the transfer.
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("adrop-infra")};
  ss::MpcNetwork net(sched, 2);
  sm::SosConfig config;
  config.maintenance_interval_s = 0;
  config.verify_batch_window_s = 30.0;  // long window: the cut wins the race
  config.verify_batch_adaptive = true;
  sc::Drbg d0(su::to_bytes("ad-0")), d1(su::to_bytes("ad-1"));
  sm::SosNode alice(sched, net.endpoint(0), *infra.signup("ad-alice", d0, 0), config);
  sm::SosNode bob(sched, net.endpoint(1), *infra.signup("ad-bob", d1, 0), config);
  alice.start();
  bob.start();
  bob.follow(alice.user_id());
  for (int i = 1; i <= 3; ++i) alice.publish(su::to_bytes("post " + std::to_string(i)));

  net.set_in_range(0, 1, true);
  sched.run_until(sched.now() + 10.0);
  ASSERT_EQ(bob.stats().bundles_received, 3u);  // queued, not yet verified
  ASSERT_EQ(bob.stats().deliveries, 0u);
  net.set_in_range(0, 1, false);  // session drops with the window open
  sched.run_all();
  EXPECT_EQ(bob.stats().deliveries, 3u);               // flushed, not dropped
  EXPECT_EQ(bob.stats().transfers_interrupted, 0u);    // nothing lost
  EXPECT_GE(bob.stats().bundle_batch_verifies, 1u);    // still one batch pass

  // The next encounter has nothing left to recover.
  net.set_in_range(0, 1, true);
  sched.run_all();
  EXPECT_EQ(bob.stats().deliveries, 3u);
}

TEST(VerifyWindow, AdaptiveStorePressureFlushesEarly) {
  // A full queue flushes immediately instead of buffering the burst for
  // the rest of the window.
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("press-infra")};
  ss::MpcNetwork net(sched, 2);
  sm::SosConfig config;
  config.maintenance_interval_s = 0;
  config.verify_batch_window_s = 30.0;
  config.verify_batch_adaptive = true;
  config.verify_batch_max_queue = 2;
  sc::Drbg d0(su::to_bytes("pr-0")), d1(su::to_bytes("pr-1"));
  sm::SosNode alice(sched, net.endpoint(0), *infra.signup("pr-alice", d0, 0), config);
  sm::SosNode bob(sched, net.endpoint(1), *infra.signup("pr-bob", d1, 0), config);
  alice.start();
  bob.start();
  bob.follow(alice.user_id());
  for (int i = 1; i <= 5; ++i) alice.publish(su::to_bytes("post " + std::to_string(i)));

  net.set_in_range(0, 1, true);
  sched.run_until(sched.now() + 10.0);  // window still open for 20+ s
  // 5 arrivals, queue cap 2: two pressure flushes deliver 4; the 5th waits
  // for the scheduled window flush.
  EXPECT_EQ(bob.stats().bundles_received, 5u);
  EXPECT_EQ(bob.stats().deliveries, 4u);
  EXPECT_GE(bob.stats().bundle_batch_verifies, 2u);
  sched.run_all();
  EXPECT_EQ(bob.stats().deliveries, 5u);
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
