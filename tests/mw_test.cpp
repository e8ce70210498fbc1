// Middleware tests: the full SOS stack over the simulated MPC radio —
// handshake and session encryption, the Fig 2b dissemination flow, the
// Fig 3a/3b forwarder flow, per-scheme semantics (epidemic / interest /
// spray / prophet / direct), end-to-end encrypted direct messages, and the
// security gates (tampered bundles, revoked certs, eavesdroppers).
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/sha256.hpp"
#include "mw/schemes/prophet.hpp"
#include "mw/schemes/spray_wait.hpp"
#include "mw/sos_node.hpp"
#include "mw/wire.hpp"
#include "pki/bootstrap.hpp"
#include "sim/multipeer.hpp"
#include "sim/scheduler.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace sb = sos::bundle;
namespace sc = sos::crypto;
namespace sm = sos::mw;
namespace sp = sos::pki;
namespace ss = sos::sim;
namespace su = sos::util;

namespace {

/// N signed-up users on a shared radio network. Ranges are driven manually.
struct Testbed {
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("testbed-infra")};
  ss::MpcNetwork net;
  std::vector<std::unique_ptr<sm::SosNode>> nodes;
  std::vector<std::vector<std::pair<sb::Bundle, sp::Certificate>>> received;

  explicit Testbed(std::size_t n, const std::string& scheme = "interest",
                   sm::SosConfig base_config = {})
      : net(sched, n) {
    received.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      sc::Drbg device(su::to_bytes("device-" + std::to_string(i)));
      auto creds = infra.signup("user" + std::to_string(i), device, sched.now());
      sm::SosConfig config = base_config;
      config.scheme = scheme;
      config.maintenance_interval_s = 0;  // keep the event queue drainable
      nodes.push_back(std::make_unique<sm::SosNode>(
          sched, net.endpoint(static_cast<ss::PeerId>(i)), std::move(*creds), config));
      std::size_t idx = i;
      nodes.back()->on_data = [this, idx](const sb::Bundle& b, const sp::Certificate& cert) {
        received[idx].emplace_back(b, cert);
      };
      nodes.back()->start();
    }
    sched.run_all();
  }

  sm::SosNode& node(std::size_t i) { return *nodes[i]; }
  sp::UserId uid(std::size_t i) { return nodes[i]->user_id(); }

  void meet(std::size_t a, std::size_t b) {
    net.set_in_range(static_cast<ss::PeerId>(a), static_cast<ss::PeerId>(b), true);
    sched.run_all();
  }
  void part(std::size_t a, std::size_t b) {
    net.set_in_range(static_cast<ss::PeerId>(a), static_cast<ss::PeerId>(b), false);
    sched.run_all();
  }
};

}  // namespace

// --- Fig 2b: basic dissemination, publisher -> subscriber ------------------

TEST(MwFlow, SubscriberReceivesPostOnEncounter) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));              // Bob follows Alice
  bed.node(0).publish(su::to_bytes("post 1")); // Alice posts offline
  bed.sched.run_all();
  EXPECT_TRUE(bed.received[1].empty());

  bed.meet(0, 1);  // devices come into range: advertise -> connect -> transfer
  ASSERT_EQ(bed.received[1].size(), 1u);
  EXPECT_EQ(su::to_string(bed.received[1][0].first.payload), "post 1");
  EXPECT_EQ(bed.received[1][0].first.origin, bed.uid(0));
  EXPECT_EQ(bed.received[1][0].first.hop_count, 1);  // direct from publisher
  EXPECT_EQ(bed.received[1][0].second.subject_id, bed.uid(0));  // origin cert
}

TEST(MwFlow, NotInterestedNodeIgnoresAdvertisement) {
  Testbed bed(2);  // node 1 does NOT follow node 0
  bed.node(0).publish(su::to_bytes("post"));
  bed.meet(0, 1);
  EXPECT_TRUE(bed.received[1].empty());
  // Interest-based: no connection should even be spent.
  EXPECT_EQ(bed.net.connections_established(), 0u);
}

TEST(MwFlow, OnlyNewMessagesTransferSecondTime) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("m1"));
  bed.meet(0, 1);
  bed.part(0, 1);
  ASSERT_EQ(bed.received[1].size(), 1u);

  bed.node(0).publish(su::to_bytes("m2"));
  bed.node(0).publish(su::to_bytes("m3"));
  bed.meet(0, 1);
  ASSERT_EQ(bed.received[1].size(), 3u);
  EXPECT_EQ(su::to_string(bed.received[1][1].first.payload), "m2");
  EXPECT_EQ(su::to_string(bed.received[1][2].first.payload), "m3");
  // m1 must not have been re-received.
  EXPECT_EQ(bed.node(1).stats().duplicates_ignored, 0u);
}

TEST(MwFlow, PublishWhileConnectedPushesImmediately) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("old"));
  bed.meet(0, 1);
  ASSERT_EQ(bed.received[1].size(), 1u);
  // Still co-located: a new post should arrive without a new encounter.
  bed.node(0).publish(su::to_bytes("live"));
  bed.sched.run_all();
  ASSERT_EQ(bed.received[1].size(), 2u);
  EXPECT_EQ(su::to_string(bed.received[1][1].first.payload), "live");
}

// --- Fig 3a/3b: forwarder selection & dissemination -------------------------

TEST(MwFlow, TwoHopForwardingThroughCommonFollower) {
  // Alice(0) -> Bob(1) -> Carol(2); Bob and Carol both follow Alice but
  // Carol never meets Alice (the alley-oop).
  Testbed bed(3);
  bed.node(1).follow(bed.uid(0));
  bed.node(2).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("alley-oop"));

  bed.meet(0, 1);
  bed.part(0, 1);
  ASSERT_EQ(bed.received[1].size(), 1u);

  bed.meet(1, 2);  // Bob forwards Alice's post + Alice's certificate
  ASSERT_EQ(bed.received[2].size(), 1u);
  const auto& [b, cert] = bed.received[2][0];
  EXPECT_EQ(su::to_string(b.payload), "alley-oop");
  EXPECT_EQ(b.hop_count, 2);                 // two D2D hops
  EXPECT_EQ(cert.subject_id, bed.uid(0));    // Fig 3b: origin certificate
  EXPECT_TRUE(b.verify(cert.subject_key));   // still origin-signed
}

TEST(MwFlow, InterestBasedDoesNotUseUninterestedRelay) {
  // Bob(1) does not follow Alice(0); Carol(2) does. IB must not deliver
  // via Bob.
  Testbed bed(3);
  bed.node(2).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("p"));
  bed.meet(0, 1);
  bed.part(0, 1);
  bed.meet(1, 2);
  bed.part(1, 2);
  EXPECT_TRUE(bed.received[2].empty());
}

TEST(MwFlow, EpidemicUsesUninterestedRelay) {
  // Same topology, epidemic scheme: Bob relays even without interest.
  Testbed bed(3, "epidemic");
  bed.node(2).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("p"));
  bed.meet(0, 1);
  bed.part(0, 1);
  bed.meet(1, 2);
  ASSERT_EQ(bed.received[2].size(), 1u);
  EXPECT_EQ(bed.received[2][0].first.hop_count, 2);
  EXPECT_TRUE(bed.received[1].empty());  // Bob carried but was not a subscriber
}

TEST(MwFlow, SchemeToggleAtRuntime) {
  Testbed bed(3);  // starts interest-based
  bed.node(2).follow(bed.uid(0));
  EXPECT_EQ(bed.node(1).scheme_name(), "interest");
  EXPECT_TRUE(bed.node(1).set_scheme("epidemic"));
  EXPECT_FALSE(bed.node(1).set_scheme("no-such-scheme"));
  EXPECT_EQ(bed.node(1).scheme_name(), "epidemic");

  bed.node(0).publish(su::to_bytes("p"));
  bed.meet(0, 1);
  bed.part(0, 1);
  bed.meet(1, 2);
  // Relay worked because node 1 toggled to epidemic.
  ASSERT_EQ(bed.received[2].size(), 1u);
}

// --- security properties -----------------------------------------------------

TEST(MwSecurity, WireCarriesNoPlaintextPayload) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  const std::string secret = "extremely-secret-payload-string";
  bed.node(0).publish(su::to_bytes(secret));

  std::vector<su::Bytes> wire_frames;
  bed.net.on_wire_frame = [&](ss::PeerId, ss::PeerId, const su::Bytes& w) {
    wire_frames.push_back(w);
  };
  bed.meet(0, 1);
  ASSERT_EQ(bed.received[1].size(), 1u);  // delivered...
  ASSERT_FALSE(wire_frames.empty());
  for (const auto& frame : wire_frames) {
    std::string as_text = su::to_string(frame);
    EXPECT_EQ(as_text.find(secret), std::string::npos);  // ...but never in clear
  }
}

TEST(MwSecurity, SessionsUseFreshKeysPerPeer) {
  Testbed bed(3);
  bed.node(1).follow(bed.uid(0));
  bed.node(2).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("same plaintext"));
  std::vector<su::Bytes> frames01, frames02;
  bed.net.on_wire_frame = [&](ss::PeerId from, ss::PeerId to, const su::Bytes& w) {
    if ((from == 0 && to == 1) || (from == 1 && to == 0)) frames01.push_back(w);
    if ((from == 0 && to == 2) || (from == 2 && to == 0)) frames02.push_back(w);
  };
  bed.meet(0, 1);
  bed.meet(0, 2);
  // The same bundle crossed both links; ciphertexts must differ.
  ASSERT_FALSE(frames01.empty());
  ASSERT_FALSE(frames02.empty());
  for (const auto& a : frames01)
    for (const auto& c : frames02) EXPECT_NE(a, c);
}

TEST(MwSecurity, RevokedCertificateIsRefusedAtHandshake) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  // Revoke node 0 and refresh node 1's CRL (the Internet-requiring step).
  bed.infra.authority().revoke(bed.node(0).credentials().certificate.serial);
  auto& creds1 = const_cast<sp::DeviceCredentials&>(bed.node(1).credentials());
  bed.infra.refresh_crl(creds1.trust);

  bed.node(0).publish(su::to_bytes("from revoked"));
  bed.meet(0, 1);
  EXPECT_TRUE(bed.received[1].empty());
  EXPECT_GE(bed.node(1).stats().handshake_cert_rejected, 1u);
}

TEST(MwSecurity, ForwarderCannotTamperWithBundle) {
  // Node 1 (epidemic relay) maliciously rewrites the payload of a carried
  // bundle; node 2 must reject it on signature grounds.
  Testbed bed(3, "epidemic");
  bed.node(2).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("honest"));
  bed.meet(0, 1);
  bed.part(0, 1);

  // Tamper inside node 1's store.
  auto id = sb::BundleId{bed.uid(0), 1};
  auto stolen = bed.node(1).store().get(id);
  ASSERT_TRUE(stolen.has_value());
  bed.node(1).store().remove(id);
  stolen->payload = su::to_bytes("evil!!");
  bed.node(1).store().insert(*stolen, bed.sched.now());

  bed.meet(1, 2);
  EXPECT_TRUE(bed.received[2].empty());
  EXPECT_GE(bed.node(2).stats().bundle_sig_rejected, 1u);
}

TEST(MwSecurity, ImpersonatedOriginIsRejected) {
  // Node 1 crafts a bundle claiming node 0's user id but signed with its
  // own key; receivers must reject the identity mismatch.
  Testbed bed(3, "epidemic");
  bed.node(2).follow(bed.uid(0));
  // Mallory (node 1) first obtains Alice's genuine certificate by relaying
  // a real post, then forges a follow-up message in Alice's name.
  bed.node(0).publish(su::to_bytes("genuine"));
  bed.meet(0, 1);
  bed.part(0, 1);
  sb::Bundle forged;
  forged.origin = bed.uid(0);  // claims Alice
  forged.msg_num = 2;
  forged.creation_ts = bed.sched.now();
  forged.payload = su::to_bytes("fake news");
  forged.sign(bed.node(1).credentials().signing_keypair);  // signed by Mallory
  bed.node(1).store().insert(forged, bed.sched.now());
  bed.node(1).routing().refresh_advertisement();

  bed.meet(1, 2);
  // The genuine post arrives; the forged one is rejected by signature.
  ASSERT_EQ(bed.received[2].size(), 1u);
  EXPECT_EQ(su::to_string(bed.received[2][0].first.payload), "genuine");
  EXPECT_GE(bed.node(2).stats().bundle_sig_rejected, 1u);
  // A forwarder with no certificate for the claimed origin cannot even
  // transmit: provenance is required to forward (Fig 3b).
  EXPECT_FALSE(bed.node(2).store().contains({bed.uid(0), 2}));
}

TEST(MwSecurity, DirectMessageIsEndToEndEncrypted) {
  // Alice(0) -> relay Bob(1, epidemic) -> Carol(2). Bob carries the DM but
  // cannot read it; Carol decrypts it.
  Testbed bed(3, "epidemic");
  const auto& carol_cert = bed.node(2).credentials().certificate;
  bed.node(0).send_direct(carol_cert, su::to_bytes("for carol only"));

  bed.meet(0, 1);
  bed.part(0, 1);
  EXPECT_TRUE(bed.received[1].empty());  // not addressed to Bob
  ASSERT_TRUE(bed.node(1).store().contains({bed.uid(0), 1}));  // but carried
  auto carried = bed.node(1).store().get({bed.uid(0), 1});
  EXPECT_EQ(su::to_string(carried->payload).find("for carol only"), std::string::npos);
  EXPECT_FALSE(bed.node(1).open_direct(*carried).has_value());  // Bob can't open

  bed.meet(1, 2);
  ASSERT_EQ(bed.received[2].size(), 1u);
  auto plain = bed.node(2).open_direct(bed.received[2][0].first);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(su::to_string(*plain), "for carol only");
}

TEST(MwSecurity, InjectedGarbageDoesNotDesyncSession) {
  // An attacker (or bit rot) injecting frames into a live session must be
  // counted and dropped without breaking the nonce sequence of legitimate
  // traffic that follows.
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("before"));
  bed.meet(0, 1);
  ASSERT_EQ(bed.received[1].size(), 1u);

  // Still connected: inject garbage "sealed" frames from the peer's radio.
  su::Bytes junk{0x02, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22};
  bed.net.endpoint(0).send(1, junk);
  bed.net.endpoint(0).send(1, junk);
  bed.sched.run_all();
  EXPECT_EQ(bed.node(1).stats().decrypt_failures, 2u);

  // Legitimate traffic on the same session still decrypts and delivers.
  bed.node(0).publish(su::to_bytes("after"));
  bed.sched.run_all();
  ASSERT_EQ(bed.received[1].size(), 2u);
  EXPECT_EQ(su::to_string(bed.received[1][1].first.payload), "after");
}

TEST(MwSecurity, ReplayedFrameIsRejected) {
  // Record a legitimate sealed frame off the air and replay it later: the
  // nonce sequence has moved on, so authentication fails.
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("original"));
  std::vector<su::Bytes> recorded;
  bed.net.on_wire_frame = [&](ss::PeerId from, ss::PeerId to, const su::Bytes& w) {
    if (from == 0 && to == 1 && !w.empty() && w[0] == 0x02) recorded.push_back(w);
  };
  bed.meet(0, 1);
  ASSERT_EQ(bed.received[1].size(), 1u);
  ASSERT_FALSE(recorded.empty());

  auto failures_before = bed.node(1).stats().decrypt_failures;
  bed.net.endpoint(0).send(1, recorded.front());  // replay
  bed.sched.run_all();
  EXPECT_EQ(bed.node(1).stats().decrypt_failures, failures_before + 1);
  EXPECT_EQ(bed.received[1].size(), 1u);  // no duplicate delivery
}

// --- low-order X25519 keys (RFC 7748 §6.1) ---------------------------------------

namespace {

/// One SOS node (endpoint 0) and a certified peer that speaks the wire
/// protocol by hand (endpoint 1), so its Hello can carry any ephemeral key.
struct HelloRig {
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("low-order")};
  ss::MpcNetwork net{sched, 2};
  std::unique_ptr<sm::SosNode> bob;
  sp::DeviceCredentials mallory;

  HelloRig() {
    sc::Drbg db(su::to_bytes("lo-bob")), dm(su::to_bytes("lo-mallory"));
    sm::SosConfig config;
    config.maintenance_interval_s = 0;
    bob = std::make_unique<sm::SosNode>(sched, net.endpoint(0),
                                        *infra.signup("lo-bob", db, 0), config);
    mallory = *infra.signup("lo-mallory", dm, 0);
    bob->start();
  }

  /// Connects and sends a Hello binding `eph_pub` under mallory's certified
  /// signing key.
  void hello_with(const sc::X25519Key& eph_pub) {
    sm::HelloFrame hello;
    hello.certificate = mallory.certificate.encode();
    hello.ephemeral_pub = eph_pub;
    hello.binding_sig = mallory.signing_keypair.sign(hello.signing_bytes());
    net.endpoint(1).start_advertising(ss::DiscoveryInfo{});
    net.endpoint(1).on_connected = [this, hello](ss::PeerId peer) {
      su::Bytes wire{0x01};  // kOuterHello
      su::append(wire, hello.encode());
      net.endpoint(1).send(peer, std::move(wire));
    };
    net.set_in_range(0, 1, true);
    net.endpoint(1).invite(0);
    sched.run_all();
  }
};

}  // namespace

class MwLowOrderKey : public ::testing::TestWithParam<const char*> {
 protected:
  sc::X25519Key point() const { return su::to_array<32>(*su::hex_decode(GetParam())); }
};

// A certified peer that sends a low-order ephemeral key forces the all-zero
// DH secret, and with it session keys it can compute alone. The handshake
// fails closed: counted as malformed, disconnected, no session.
TEST_P(MwLowOrderKey, HelloEstablishesNoSession) {
  HelloRig rig;
  rig.hello_with(point());
  EXPECT_EQ(rig.bob->stats().full_handshakes, 0u);
  EXPECT_EQ(rig.bob->stats().sessions_established, 0u);
  EXPECT_GE(rig.bob->stats().malformed_frames, 1u);
  EXPECT_FALSE(rig.bob->adhoc().session_secure(1));
  EXPECT_FALSE(rig.net.endpoint(0).is_connected(1));
}

// A direct message whose ephemeral key is low-order was sealed under a key
// anyone can derive; open_direct refuses it.
TEST_P(MwLowOrderKey, DirectMessageIsNotOpened) {
  Testbed bed(2);
  const auto& bob_cert = bed.node(1).credentials().certificate;
  const sc::X25519Key eph_pub = point();
  const su::Bytes zero_secret(32, 0);
  auto key = sc::hkdf(su::concat(eph_pub, bob_cert.subject_enc_key), zero_secret,
                      su::to_bytes("sos-dm-v1"), sc::kAeadKeySize);
  std::uint8_t nonce[sc::kAeadNonceSize] = {0};
  sb::Bundle b;
  b.origin = bed.uid(0);
  b.msg_num = 1;
  b.creation_ts = bed.sched.now();
  b.content = sb::ContentType::DirectMessage;
  b.dest = bed.uid(1);
  b.payload = su::concat(
      eph_pub, sc::aead_seal(key.data(), nonce, su::to_bytes("sos-dm"), su::to_bytes("forged")));
  b.sign(bed.node(0).credentials().signing_keypair);
  EXPECT_FALSE(bed.node(1).open_direct(b).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Rfc7748, MwLowOrderKey,
    ::testing::Values(
        "0000000000000000000000000000000000000000000000000000000000000000",  // 0
        "0100000000000000000000000000000000000000000000000000000000000000",  // 1
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",  // order 8
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",  // order 8
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p - 1
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // p
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"   // p + 1
        ));

// The same rig with an honest ephemeral key does establish a session, so
// the rejections above are the key's doing.
TEST(MwLowOrder, HonestKeyEstablishesSession) {
  HelloRig rig;
  sc::Drbg d(su::to_bytes("lo-honest"));
  rig.hello_with(sc::x25519_base(sc::x25519_clamp(d.generate_array<32>())));
  EXPECT_EQ(rig.bob->stats().full_handshakes, 1u);
  EXPECT_TRUE(rig.bob->adhoc().session_secure(1));
  EXPECT_EQ(rig.bob->stats().malformed_frames, 0u);
}

// --- partial transfers ----------------------------------------------------------

TEST(MwFlow, InterruptedTransferResumesNextEncounter) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  // Large posts: ~2s each on the simulated link.
  for (int i = 0; i < 3; ++i) bed.node(0).publish(su::Bytes(4'000'000, 0x55));

  bed.net.set_in_range(0, 1, true);
  // Give the link ~4.6s: handshake + summary + roughly two bundles.
  bed.sched.run_until(bed.sched.now() + 6.0);
  bed.net.set_in_range(0, 1, false);
  bed.sched.run_all();
  std::size_t got_first = bed.received[1].size();
  EXPECT_LT(got_first, 3u);  // the cut happened mid-batch
  // The sender counts the session that broke with transfers in flight.
  EXPECT_EQ(bed.node(0).stats().transfers_interrupted, 1u);

  bed.meet(0, 1);  // second encounter: pull-based protocol resumes
  EXPECT_EQ(bed.received[1].size(), 3u);
  EXPECT_EQ(bed.node(1).stats().duplicates_ignored, 0u);  // no double delivery
}

// --- spray & wait ------------------------------------------------------------------

TEST(MwSpray, RelayBudgetHalvesAndWaits) {
  Testbed bed(4, "spray");
  // Node 3 follows node 0; nodes 1, 2 are disinterested relays.
  bed.node(3).follow(bed.uid(0));
  auto* scheme0 = new sm::SprayAndWaitScheme(4);
  bed.node(0).set_scheme(std::unique_ptr<sm::RoutingScheme>(scheme0));
  auto id = bed.node(0).publish(su::to_bytes("sprayed"));
  EXPECT_EQ(scheme0->copies_left(id), 4u);

  bed.meet(0, 1);  // relay 1 takes floor(4/2) = 2 copies
  bed.part(0, 1);
  EXPECT_EQ(scheme0->copies_left(id), 2u);

  bed.meet(0, 2);  // relay 2 takes floor(2/2) = 1, source keeps 1 (wait)
  bed.part(0, 2);
  EXPECT_EQ(scheme0->copies_left(id), 1u);

  // Source in wait phase: meeting another relay must NOT hand out copies,
  // but meeting the subscriber delivers.
  bed.meet(1, 3);
  ASSERT_EQ(bed.received[3].size(), 1u);
  EXPECT_EQ(su::to_string(bed.received[3][0].first.payload), "sprayed");
}

TEST(MwSpray, WaitPhaseRelayDeliversOnlyToSubscribers) {
  Testbed bed(3, "spray");
  bed.node(2).follow(bed.uid(0));
  auto* scheme0 = new sm::SprayAndWaitScheme(2);
  bed.node(0).set_scheme(std::unique_ptr<sm::RoutingScheme>(scheme0));
  auto id = bed.node(0).publish(su::to_bytes("x"));

  bed.meet(0, 1);  // relay 1 gets 1 copy; source drops to wait (1 copy)
  bed.part(0, 1);
  EXPECT_EQ(scheme0->copies_left(id), 1u);

  // Source (wait phase) meets a second relay-capable node... via node 1,
  // which itself holds only 1 copy: node 1 must not re-relay to node 0's
  // replacements, but must deliver to subscriber node 2.
  bed.meet(1, 2);
  ASSERT_EQ(bed.received[2].size(), 1u);
}

// --- PRoPHET (unicast) ------------------------------------------------------------

TEST(MwProphet, PredictabilityGrowsOnEncounters) {
  Testbed bed(2, "prophet");
  auto* scheme = dynamic_cast<sm::ProphetScheme*>(&bed.node(0).routing().scheme());
  ASSERT_NE(scheme, nullptr);
  EXPECT_DOUBLE_EQ(scheme->predictability(bed.uid(1)), 0.0);
  bed.meet(0, 1);
  double p1 = scheme->predictability(bed.uid(1));
  EXPECT_NEAR(p1, 0.75, 1e-9);
  bed.part(0, 1);
  bed.meet(0, 1);
  EXPECT_GT(scheme->predictability(bed.uid(1)), p1);
}

TEST(MwProphet, DeliversUnicastViaBetterCarrier) {
  // 0 wants to reach 2 but only ever meets 1; 1 meets 2 regularly, so 1's
  // predictability for 2 is higher and the bundle flows 0 -> 1 -> 2.
  Testbed bed(3, "prophet");
  // Build up 1<->2 history.
  bed.meet(1, 2);
  bed.part(1, 2);
  bed.meet(1, 2);
  bed.part(1, 2);

  const auto& cert2 = bed.node(2).credentials().certificate;
  bed.node(0).send_direct(cert2, su::to_bytes("via prophet"));
  bed.meet(0, 1);
  bed.part(0, 1);
  ASSERT_TRUE(bed.node(1).store().contains({bed.uid(0), 1}));

  bed.meet(1, 2);
  ASSERT_EQ(bed.received[2].size(), 1u);
  auto plain = bed.node(2).open_direct(bed.received[2][0].first);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(su::to_string(*plain), "via prophet");
}

TEST(MwProphet, WorseCarrierDoesNotTakeBundle) {
  // Node 0 has met destination 2 directly; node 1 never has. When 0 meets
  // 1, PRoPHET must keep the bundle on 0.
  Testbed bed(3, "prophet");
  bed.meet(0, 2);
  bed.part(0, 2);
  const auto& cert2 = bed.node(2).credentials().certificate;
  bed.node(0).send_direct(cert2, su::to_bytes("stay home"));
  bed.meet(0, 1);
  bed.part(0, 1);
  EXPECT_FALSE(bed.node(1).store().contains({bed.uid(0), 1}));
}

// --- direct delivery ------------------------------------------------------------------

TEST(MwDirect, OnlyPublisherServesContent) {
  Testbed bed(3, "direct");
  bed.node(1).follow(bed.uid(0));
  bed.node(2).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("direct-only"));

  bed.meet(0, 1);  // subscriber meets publisher: delivered
  bed.part(0, 1);
  ASSERT_EQ(bed.received[1].size(), 1u);
  EXPECT_EQ(bed.received[1][0].first.hop_count, 1);

  bed.meet(1, 2);  // subscriber 1 must NOT serve subscriber 2
  bed.part(1, 2);
  EXPECT_TRUE(bed.received[2].empty());

  bed.meet(0, 2);  // only the publisher delivers
  ASSERT_EQ(bed.received[2].size(), 1u);
}

// --- session resumption (recurring contacts) --------------------------------

TEST(MwResume, SecondEncounterResumesWithZeroEcdhOps) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("first"));
  bed.meet(0, 1);  // cold contact: full handshake mints the resumption secret
  bed.part(0, 1);
  ASSERT_EQ(bed.received[1].size(), 1u);
  EXPECT_EQ(bed.node(0).stats().full_handshakes, 1u);
  EXPECT_EQ(bed.node(1).stats().full_handshakes, 1u);
  std::uint64_t ecdh0 = bed.node(0).stats().ecdh_ops;
  std::uint64_t ecdh1 = bed.node(1).stats().ecdh_ops;
  EXPECT_GT(ecdh0, 0u);

  bed.node(0).publish(su::to_bytes("second"));
  bed.meet(0, 1);  // recurring contact: 1-RTT resume, data still flows
  ASSERT_EQ(bed.received[1].size(), 2u);
  EXPECT_EQ(su::to_string(bed.received[1][1].first.payload), "second");
  for (std::size_t i : {0u, 1u}) {
    EXPECT_EQ(bed.node(i).stats().sessions_established, 2u) << "node " << i;
    EXPECT_EQ(bed.node(i).stats().sessions_resumed, 1u) << "node " << i;
    EXPECT_EQ(bed.node(i).stats().full_handshakes, 1u) << "node " << i;
    EXPECT_EQ(bed.node(i).stats().resume_rejected, 0u) << "node " << i;
  }
  // The acceptance bar: a resumed contact performs zero X25519 operations.
  EXPECT_EQ(bed.node(0).stats().ecdh_ops, ecdh0);
  EXPECT_EQ(bed.node(1).stats().ecdh_ops, ecdh1);
}

TEST(MwResume, ExpiredSecretFallsBackToFullHandshake) {
  sm::SosConfig config;
  config.resume_lifetime_s = 100.0;
  Testbed bed(2, "interest", config);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("m1"));
  bed.meet(0, 1);
  bed.part(0, 1);

  // Let the resumption lifetime elapse: the forward-secrecy window closed.
  bed.sched.run_until(bed.sched.now() + 200.0);
  bed.node(0).publish(su::to_bytes("m2"));
  bed.meet(0, 1);
  ASSERT_EQ(bed.received[1].size(), 2u);
  for (std::size_t i : {0u, 1u}) {
    EXPECT_EQ(bed.node(i).stats().full_handshakes, 2u) << "node " << i;
    EXPECT_EQ(bed.node(i).stats().sessions_resumed, 0u) << "node " << i;
    EXPECT_EQ(bed.node(i).stats().resume_attempts, 0u) << "node " << i;
  }
}

TEST(MwResume, UnknownPeerEntryFallsBackToFullHandshake) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("m1"));
  bed.meet(0, 1);
  bed.part(0, 1);

  // Node 1 forgets node 0's resumption secret (cache eviction / trust
  // change); node 0 still opens with Resume and must be sent back to the
  // full handshake.
  auto fp = sc::Sha256::hash(bed.node(0).credentials().certificate.encode());
  bed.node(1).adhoc().forget_resume_secret(fp);
  bed.node(0).publish(su::to_bytes("m2"));
  bed.meet(0, 1);
  ASSERT_EQ(bed.received[1].size(), 2u);
  EXPECT_EQ(bed.node(0).stats().resume_attempts, 1u);
  EXPECT_EQ(bed.node(1).stats().resume_rejected, 1u);
  EXPECT_EQ(bed.node(0).stats().sessions_resumed, 0u);
  EXPECT_EQ(bed.node(1).stats().sessions_resumed, 0u);
  EXPECT_EQ(bed.node(0).stats().full_handshakes, 2u);
  EXPECT_EQ(bed.node(1).stats().full_handshakes, 2u);
}

TEST(MwResume, DisabledConfigNeverResumes) {
  sm::SosConfig config;
  config.resume_lifetime_s = 0;
  Testbed bed(2, "interest", config);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("m1"));
  bed.meet(0, 1);
  bed.part(0, 1);
  bed.node(0).publish(su::to_bytes("m2"));
  bed.meet(0, 1);
  ASSERT_EQ(bed.received[1].size(), 2u);
  EXPECT_EQ(bed.node(0).stats().resume_attempts, 0u);
  EXPECT_EQ(bed.node(0).stats().full_handshakes, 2u);
  EXPECT_EQ(bed.node(0).adhoc().resume_cache_size(), 0u);
}

TEST(MwResume, RevokedCertificateIsNotResumed) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("before revocation"));
  bed.meet(0, 1);
  bed.part(0, 1);
  ASSERT_EQ(bed.received[1].size(), 1u);

  // Revoke node 0 after a resumption secret exists for it: the cached
  // secret must not carry the revoked identity past the CRL.
  bed.infra.authority().revoke(bed.node(0).credentials().certificate.serial);
  auto& creds1 = const_cast<sp::DeviceCredentials&>(bed.node(1).credentials());
  bed.infra.refresh_crl(creds1.trust);

  bed.node(0).publish(su::to_bytes("after revocation"));
  bed.meet(0, 1);
  EXPECT_EQ(bed.received[1].size(), 1u);  // nothing new delivered
  EXPECT_EQ(bed.node(1).stats().sessions_resumed, 0u);
  EXPECT_GE(bed.node(1).stats().handshake_cert_rejected, 1u);
}

TEST(MwResume, EvictedCacheEntryFallsBackToFullHandshake) {
  Testbed bed(3);
  bed.node(0).adhoc().set_resume_cache_capacity(1);
  bed.node(1).follow(bed.uid(0));
  bed.node(2).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("m1"));

  bed.meet(0, 1);
  bed.part(0, 1);
  EXPECT_EQ(bed.node(0).adhoc().resume_cache_size(), 1u);
  bed.meet(0, 2);  // capacity-1 cache: node 1's entry is evicted
  bed.part(0, 2);
  EXPECT_EQ(bed.node(0).adhoc().resume_cache_size(), 1u);

  bed.node(0).publish(su::to_bytes("m2"));
  bed.meet(0, 1);  // node 1 attempts a resume; node 0 no longer knows it
  ASSERT_EQ(bed.received[1].size(), 2u);
  EXPECT_EQ(bed.node(1).stats().resume_attempts, 1u);
  EXPECT_EQ(bed.node(0).stats().resume_rejected, 1u);
  EXPECT_EQ(bed.node(1).stats().sessions_resumed, 0u);
  EXPECT_EQ(bed.node(0).stats().full_handshakes, 3u);
}

// --- detach/attach seam under resumption (episode-partitioned replay) --------

TEST(MwSeam, MidSessionDetachResumesOnNewShard) {
  // A node detached while a session is still live (the engine never does
  // this — episode boundaries are quiescent — but the seam must be total):
  // the live session is torn down with its transport, while the resumption
  // cache migrates, so the next contact on a fresh shard is a 1-RTT resume
  // with zero new X25519 work, not a full handshake.
  sp::BootstrapService infra{su::to_bytes("seam-infra")};
  ss::Scheduler sched_a;
  ss::MpcNetwork net_a(sched_a, 2);
  sm::SosConfig config;
  config.maintenance_interval_s = 0;
  config.resume_lifetime_s = 1e9;
  sc::Drbg d0(su::to_bytes("seam-0")), d1(su::to_bytes("seam-1"));
  sm::SosNode alice(sched_a, net_a.endpoint(0), *infra.signup("seam-alice", d0, 0), config);
  sm::SosNode bob(sched_a, net_a.endpoint(1), *infra.signup("seam-bob", d1, 0), config);
  std::vector<std::string> got;
  bob.on_data = [&](const sb::Bundle& b, const sp::Certificate&) {
    got.push_back(su::to_string(b.payload));
  };
  alice.start();
  bob.start();
  bob.follow(alice.user_id());
  alice.publish(su::to_bytes("before"));
  net_a.set_in_range(0, 1, true);
  sched_a.run_all();
  ASSERT_EQ(got, (std::vector<std::string>{"before"}));
  ASSERT_EQ(alice.adhoc().secure_peers().size(), 1u);  // still mid-session
  ASSERT_EQ(alice.stats().full_handshakes, 1u);
  const std::uint64_t ecdh_alice = alice.stats().ecdh_ops;
  const std::uint64_t ecdh_bob = bob.stats().ecdh_ops;

  alice.detach();
  bob.detach();
  EXPECT_FALSE(alice.attached());
  EXPECT_EQ(alice.stats().sessions_lost, 1u);  // transport gone = session gone
  EXPECT_EQ(bob.stats().sessions_lost, 1u);
  EXPECT_EQ(alice.adhoc().secure_peers().size(), 0u);
  EXPECT_EQ(alice.adhoc().resume_cache_size(), 1u);  // the secret migrates

  ss::Scheduler sched_b(sched_a.now());
  ss::MpcNetwork net_b(sched_b, 2);
  alice.attach(sched_b, net_b.endpoint(0));
  bob.attach(sched_b, net_b.endpoint(1));
  alice.publish(su::to_bytes("after"));
  net_b.set_in_range(0, 1, true);
  sched_b.run_all();

  EXPECT_EQ(got, (std::vector<std::string>{"before", "after"}));
  for (const sm::SosNode* n : {&alice, &bob}) {
    EXPECT_EQ(n->stats().sessions_established, 2u);
    EXPECT_EQ(n->stats().sessions_resumed, 1u);  // resumed, not re-handshaken
    EXPECT_EQ(n->stats().full_handshakes, 1u);
    EXPECT_EQ(n->stats().resume_rejected, 0u);
  }
  EXPECT_EQ(alice.stats().ecdh_ops, ecdh_alice);  // zero X25519 on the resume
  EXPECT_EQ(bob.stats().ecdh_ops, ecdh_bob);
}

TEST(MwSeam, ManagerStatesRejectEveryPrefixAndATrailingByte) {
  // Node 1 carries spray state, a verify cache, a resumption entry, cached
  // certificates and a stored bundle. Each manager's checkpoint state must
  // load exactly: every strict prefix and one appended byte are refused.
  // Loads parse fully before committing, so node 2 serves as the target
  // for every probe.
  Testbed bed(3, "spray", [] {
    sm::SosConfig c;
    c.resume_lifetime_s = 1e9;
    return c;
  }());
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("carried"));
  bed.meet(0, 1);
  bed.part(0, 1);
  for (std::size_t i = 0; i < 3; ++i) bed.node(i).detach();
  ASSERT_EQ(bed.node(1).adhoc().resume_cache_size(), 1u);
  ASSERT_EQ(bed.node(1).store().size(), 1u);

  // States that refer to bundles, certificates or verdicts are swept
  // behind the record table their save wrote.
  auto sweep = [](const char* what, const su::Bytes& valid, auto&& load) {
    auto accepts = [&](su::ByteView b) {
      su::Reader r(b);
      sb::RecordTable records;
      return records.load(r) && load(r, records) && r.done();
    };
    for (std::size_t n = 0; n < valid.size(); ++n)
      EXPECT_FALSE(accepts(su::ByteView(valid.data(), n))) << what << ": prefix of " << n;
    su::Bytes longer = valid;
    longer.push_back(0);
    EXPECT_FALSE(accepts(longer)) << what << ": one byte appended";
    EXPECT_TRUE(accepts(valid)) << what;
  };
  auto saved = [](const auto& manager) {
    su::Writer w;
    sb::RecordTable::save(w, [&](su::Writer& out, sb::RecordTable& records) {
      if constexpr (requires { manager.save_state(out, records); })
        manager.save_state(out, records);
      else
        manager.save_state(out);
    });
    return w.take();
  };
  sm::SosNode& src = bed.node(1);
  sm::SosNode& dst = bed.node(2);
  using Records = const sb::RecordTable&;
  sweep("adhoc", saved(src.adhoc()),
        [&](su::Reader& r, Records t) { return dst.adhoc().load_state(r, t); });
  sweep("messages", saved(src.messages()),
        [&](su::Reader& r, Records t) { return dst.messages().load_state(r, t); });
  sweep("routing", saved(src.routing()),
        [&](su::Reader& r, Records) { return dst.routing().load_state(r); });
  sweep("node", saved(src), [&](su::Reader& r, Records t) { return dst.load_state(r, t); });
}

namespace {
// The AdHocManager checkpoint layout behind its record table, mirrored so a
// test can corrupt it. Verdicts and certificates are table indices.
struct ResumeRecord {
  std::array<std::uint8_t, 32> fingerprint{};
  std::array<std::uint8_t, 32> secret{};
  std::uint64_t cert = 0;
  double established_at = 0;
};
struct AdHocState {
  su::Bytes table;
  su::Bytes drbg;
  bool started = false;
  std::map<std::string, std::string> adverts;
  std::vector<std::uint64_t> verify;
  std::vector<ResumeRecord> resume;
  std::map<std::uint32_t, std::array<std::uint8_t, 32>> hints;

  static AdHocState parse(const su::Bytes& blob) {
    AdHocState s;
    su::Reader r{su::ByteView(blob)};
    su::Reader at_table = r;
    sb::RecordTable records;
    EXPECT_TRUE(records.load(r));
    s.table = at_table.raw(at_table.remaining() - r.remaining());
    s.drbg = r.raw(40);  // key + counter
    su::get(r, s.started, s.adverts);
    s.verify.resize(r.varint());
    for (std::uint64_t& v : s.verify) v = r.varint();
    s.resume.resize(r.varint());
    for (ResumeRecord& e : s.resume) {
      su::get(r, e.fingerprint, e.secret);
      e.cert = r.varint();
      su::get(r, e.established_at);
    }
    su::get(r, s.hints);
    EXPECT_TRUE(r.done());
    return s;
  }
  su::Bytes encode() const {
    su::Writer w;
    w.raw(table);
    w.raw(drbg);
    su::put(w, started, adverts);
    w.varint(verify.size());
    for (std::uint64_t v : verify) w.varint(v);
    w.varint(resume.size());
    for (const ResumeRecord& e : resume) {
      su::put(w, e.fingerprint, e.secret);
      w.varint(e.cert);
      su::put(w, e.established_at);
    }
    su::put(w, hints);
    return w.take();
  }
  bool loads_into(sm::AdHocManager& adhoc) const {
    su::Bytes blob = encode();
    su::Reader r{su::ByteView(blob)};
    sb::RecordTable records;
    return records.load(r) && adhoc.load_state(r, records) && r.done();
  }
};
}  // namespace

TEST(MwSeam, AdHocStateWithARepeatedCacheKeyIsRejected) {
  // save_state writes each verify-cache id and resume fingerprint once; a
  // state naming one twice would leave an LRU node that no cache entry
  // backs, and the next save would read past the map.
  Testbed bed(3, "interest", [] {
    sm::SosConfig c;
    c.resume_lifetime_s = 1e9;
    return c;
  }());
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("cached"));
  bed.meet(0, 1);
  bed.part(0, 1);
  for (std::size_t i = 0; i < 3; ++i) bed.node(i).detach();
  su::Writer w;
  sb::RecordTable::save(w, [&](su::Writer& out, sb::RecordTable& records) {
    bed.node(1).adhoc().save_state(out, records);
  });
  const su::Bytes blob = w.take();
  const AdHocState good = AdHocState::parse(blob);
  ASSERT_EQ(good.encode(), blob);
  ASSERT_EQ(good.verify.size(), 1u);
  ASSERT_EQ(good.resume.size(), 1u);

  AdHocState twice_verified = good;
  twice_verified.verify.push_back(good.verify[0]);
  AdHocState twice_resumed = good;
  twice_resumed.resume.push_back(good.resume[0]);
  // Indices past the table fail closed too.
  AdHocState verdict_past_table = good;
  verdict_past_table.verify[0] = 1;
  AdHocState cert_past_table = good;
  cert_past_table.resume[0].cert = 1;
  for (const AdHocState* bad :
       {&twice_verified, &twice_resumed, &verdict_past_table, &cert_past_table}) {
    EXPECT_FALSE(bad->loads_into(bed.node(2).adhoc()));
    EXPECT_EQ(bed.node(2).adhoc().resume_cache_size(), 0u);  // nothing attached
  }
  EXPECT_TRUE(good.loads_into(bed.node(2).adhoc()));
  EXPECT_EQ(bed.node(2).adhoc().resume_cache_size(), 1u);
}

// --- stats & bookkeeping -----------------------------------------------------------------

TEST(MwStats, CountersTrackActivity) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("m1"));
  bed.node(0).publish(su::to_bytes("m2"));
  bed.meet(0, 1);

  const auto& s0 = bed.node(0).stats();
  const auto& s1 = bed.node(1).stats();
  EXPECT_EQ(s0.published, 2u);
  EXPECT_EQ(s0.bundles_sent, 2u);
  EXPECT_EQ(s1.bundles_received, 2u);
  EXPECT_EQ(s1.deliveries, 2u);
  EXPECT_EQ(s1.bundles_carried, 2u);
  EXPECT_EQ(s0.sessions_established, 1u);
  EXPECT_EQ(s1.sessions_established, 1u);
}

TEST(MwStats, PeerCertificateAvailableAfterHandshake) {
  Testbed bed(2);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("x"));
  bed.meet(0, 1);
  const auto* cert = bed.node(1).adhoc().peer_certificate(0);
  ASSERT_NE(cert, nullptr);
  EXPECT_EQ(cert->subject_id, bed.uid(0));
}

// --- the copy-free control plane ----------------------------------------------

namespace {

/// Send decisions that are pure functions of the bundle id, so a model can
/// predict them; records every call the request server makes.
class ScriptedScheme : public sm::RoutingScheme {
 public:
  struct Call {
    char kind;  // 'm' may_send, 'c' copies_to_send, 's' on_sent
    sb::BundleId id;
    bool operator==(const Call&) const = default;
  };

  static bool allows(const sb::BundleId& id) { return (id.msg_num * 2654435761u >> 7) % 4 != 0; }
  static std::uint32_t copies(const sb::BundleId& id) { return id.msg_num % 3; }

  std::string name() const override { return "scripted"; }
  std::map<sp::UserId, std::uint32_t> advertisement(const sm::RoutingContext& ctx) override {
    return ctx.store().summary();
  }
  bool should_connect(const sm::RoutingContext&,
                      const std::map<sp::UserId, std::uint32_t>&) override {
    return true;
  }
  sm::RequestPlan plan_requests(const sm::RoutingContext&, const sm::PeerView&) override {
    return {};
  }
  bool may_send(const sm::RoutingContext&, const sb::Bundle& b, const sm::PeerView&) override {
    calls.push_back({'m', b.id()});
    return allows(b.id());
  }
  bool should_carry(const sm::RoutingContext&, const sb::Bundle&) override { return false; }
  std::uint32_t copies_to_send(const sm::RoutingContext&, const sb::Bundle& b,
                               const sm::PeerView&) override {
    calls.push_back({'c', b.id()});
    return copies(b.id());
  }
  void on_sent(const sm::RoutingContext&, const sb::Bundle& b, const sm::PeerView&) override {
    calls.push_back({'s', b.id()});
  }

  std::vector<Call> calls;
};

/// Request serving as it was before the store walk: copy every requested
/// bundle out of the store, then filter the copies one at a time against
/// the session's sent set. Returns the scheme calls and the (id, copies)
/// frames sent, updating `sent` as sends happen.
std::pair<std::vector<ScriptedScheme::Call>, std::vector<std::pair<sb::BundleId, std::uint32_t>>>
copy_then_filter(const sb::BundleStore& store, std::set<sb::BundleId>& sent,
                 const sm::RequestFrame& request, const std::set<sp::UserId>& certified) {
  std::vector<sb::Bundle> to_send;
  for (const auto& [uid, since] : request.by_publisher)
    for (const sb::StoredBundle* stored : store.all())
      if (stored->bundle.origin == uid && stored->bundle.msg_num > since)
        to_send.push_back(stored->bundle);
  for (const auto& id : request.by_id)
    if (auto b = store.get(id)) to_send.push_back(*b);
  std::vector<ScriptedScheme::Call> calls;
  std::vector<std::pair<sb::BundleId, std::uint32_t>> frames;
  for (const auto& b : to_send) {
    if (sent.count(b.id()) > 0) continue;
    calls.push_back({'m', b.id()});
    if (!ScriptedScheme::allows(b.id())) continue;
    calls.push_back({'c', b.id()});
    if (certified.count(b.origin) == 0) continue;  // no certificate: not sent
    sent.insert(b.id());
    frames.emplace_back(b.id(), ScriptedScheme::copies(b.id()));
    calls.push_back({'s', b.id()});
  }
  return {calls, frames};
}

}  // namespace

TEST(MwServe, InPlaceServingMatchesCopyThenFilter) {
  // Node 0 serves random requests from its store to node 1 over one
  // session; a model of the old algorithm predicts every scheme call and
  // every frame. Requests repeat and overlap publishers (so a walk meets
  // bundles an earlier walk of the same request just sent), name ids, ask
  // from UINT32_MAX, and name publishers held without a certificate.
  Testbed bed(2);
  auto scheme = std::make_unique<ScriptedScheme>();
  ScriptedScheme& scripted = *scheme;
  bed.node(0).set_scheme(std::move(scheme));
  bed.meet(0, 1);
  ASSERT_TRUE(bed.node(0).adhoc().session_secure(1));
  ASSERT_TRUE(bed.node(0).messages().sent_to(1).empty());

  // Publishers: node 0 itself, two whose certificates node 0 holds, one
  // whose certificate it lacks, and one it holds nothing from.
  std::vector<sp::DeviceCredentials> authors;
  for (int k = 0; k < 3; ++k) {
    sc::Drbg device(su::to_bytes("author-" + std::to_string(k)));
    authors.push_back(*bed.infra.signup("author" + std::to_string(k), device, 0));
  }
  bed.node(0).messages().remember_certificate(authors[0].certificate);
  bed.node(0).messages().remember_certificate(authors[1].certificate);
  const std::set<sp::UserId> certified = {bed.uid(0), bed.uid(1), authors[0].user_id,
                                          authors[1].user_id};
  const std::vector<sp::UserId> publishers = {bed.uid(0), authors[0].user_id,
                                              authors[1].user_id, authors[2].user_id,
                                              sp::user_id_from_name("nobody")};

  // Frames node 1 receives, in arrival order (signatures check out, so
  // every sent bundle is handed up).
  std::vector<std::pair<sb::BundleId, std::uint32_t>> received;
  bed.node(1).messages().on_bundle = [&received](ss::PeerId, sb::Bundle b, const sp::Certificate&,
                                                 std::uint32_t copies) {
    received.emplace_back(b.id(), copies);
  };

  su::Rng rng(2024);
  std::set<sb::BundleId> model_sent;
  std::vector<std::pair<sb::BundleId, std::uint32_t>> model_frames;
  for (int round = 0; round < 60; ++round) {
    // The store grows between requests, out of order.
    for (int k = 0; k < 4; ++k) {
      std::size_t who = rng.below(4);
      sb::Bundle b;
      b.msg_num = static_cast<std::uint32_t>(1 + rng.below(40));
      b.payload = su::to_bytes("post " + std::to_string(round));
      if (who == 0) {
        b.origin = bed.uid(0);
        b.sign(bed.node(0).credentials().signing_keypair);
      } else {
        b.origin = authors[who - 1].user_id;
        b.sign(authors[who - 1].signing_keypair);
      }
      bed.node(0).store().insert(std::move(b), bed.sched.now());
    }
    sm::RequestFrame request;
    for (std::uint64_t n = rng.below(5); n > 0; --n) {
      std::uint32_t since = static_cast<std::uint32_t>(rng.below(40));
      if (rng.chance(0.15)) since = 0;
      if (rng.chance(0.1)) since = std::numeric_limits<std::uint32_t>::max();
      request.by_publisher.emplace_back(rng.pick(publishers), since);
    }
    for (std::uint64_t n = rng.below(4); n > 0; --n)
      request.by_id.push_back(
          {rng.pick(publishers), static_cast<std::uint32_t>(1 + rng.below(40))});

    auto [calls, frames] =
        copy_then_filter(bed.node(0).store(), model_sent, request, certified);
    scripted.calls.clear();
    const std::uint64_t sent_before = bed.node(0).stats().bundles_sent;
    bed.node(0).messages().on_request(1, request);
    EXPECT_EQ(scripted.calls, calls) << "round " << round;
    EXPECT_EQ(bed.node(0).stats().bundles_sent - sent_before, frames.size()) << "round " << round;
    EXPECT_EQ(bed.node(0).messages().sent_to(1), model_sent) << "round " << round;
    model_frames.insert(model_frames.end(), frames.begin(), frames.end());
    bed.sched.run_all();
    EXPECT_EQ(received, model_frames) << "round " << round;
  }
  EXPECT_GT(model_sent.size(), 40u);  // the rounds did send
}

TEST(MwServe, MergedPlansMatchLookupPlansOnRandomMaps) {
  // Each scheme's plan_requests merges the peer's summary against the
  // store summary (and the subscriptions) in one ordered walk; the
  // reference looks every entry up, as the schemes used to.
  auto lookup_plan = [](const std::string& scheme, const sm::RoutingContext& ctx,
                        const sm::PeerView& peer) {
    sm::RequestPlan plan;
    for (const auto& [uid, num] : peer.summary.entries) {
      if (scheme == "interest" && !ctx.subscribed_to(uid)) continue;
      std::uint32_t held = ctx.max_held(uid);
      if (num > held) plan.by_publisher.emplace_back(uid, held);
    }
    if (scheme == "interest")
      for (const auto& u : peer.summary.unicast)
        if (u.dest == ctx.self() && !ctx.store().contains(u.id)) plan.by_id.push_back(u.id);
    return plan;
  };
  std::vector<sp::UserId> pool;
  for (int k = 0; k < 12; ++k) pool.push_back(sp::user_id_from_name("pool" + std::to_string(k)));
  const sp::UserId self = pool[0];
  su::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    sb::BundleStore store;
    for (std::uint64_t n = rng.below(30); n > 0; --n) {
      sb::Bundle b;
      b.origin = rng.pick(pool);
      b.msg_num = static_cast<std::uint32_t>(1 + rng.below(20));
      if (rng.chance(0.1)) b.dest = rng.pick(pool);
      store.insert(std::move(b), 0);
    }
    std::set<sp::UserId> subscriptions;
    for (const sp::UserId& uid : pool)
      if (rng.chance(0.4)) subscriptions.insert(uid);
    sm::PeerView peer;
    peer.uid = rng.pick(pool);
    for (const sp::UserId& uid : pool)
      if (rng.chance(0.6)) peer.summary.entries[uid] = static_cast<std::uint32_t>(rng.below(22));
    for (std::uint64_t n = rng.below(4); n > 0; --n)
      peer.summary.unicast.push_back(
          {sb::BundleId{rng.pick(pool), static_cast<std::uint32_t>(1 + rng.below(20))},
           rng.chance(0.5) ? self : rng.pick(pool)});
    sm::RoutingContext ctx(self, subscriptions, store, 0.0);
    for (const std::string name : {"interest", "epidemic", "spray", "blackhole"}) {
      auto scheme = sm::make_scheme(name);
      sm::RequestPlan merged = scheme->plan_requests(ctx, peer);
      sm::RequestPlan lookup = lookup_plan(name, ctx, peer);
      EXPECT_EQ(merged.by_publisher, lookup.by_publisher) << name << " trial " << trial;
      EXPECT_EQ(merged.by_id, lookup.by_id) << name << " trial " << trial;
    }
  }
}

TEST(MwAdvert, BrowsersGetTheEntriesTheAdvertisedTextRendersFrom) {
  // The advertisement travels as a snapshot of the entries it was built
  // from; a browser must be handed exactly what parsing the advertised
  // text would give — also after the advertiser resumes from a checkpoint,
  // which restores the snapshot by parsing that text.
  Testbed bed(2, "epidemic");
  for (int k = 0; k < 3; ++k) bed.node(0).publish(su::to_bytes("p" + std::to_string(k)));
  bed.sched.run_all();
  std::vector<sm::Advert::Entries> seen;
  auto forward = bed.node(1).adhoc().on_peer_advert;
  bed.node(1).adhoc().on_peer_advert = [&](ss::PeerId peer, const sm::Advert::Entries& e) {
    if (peer == 0) seen.push_back(e);
    forward(peer, e);
  };
  auto advertised = [&bed] { return sm::Advert::parse(bed.net.endpoint(0).discovery_info()); };
  bed.meet(0, 1);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.back(), advertised());
  EXPECT_EQ(seen.back(), (sm::Advert::Entries{{bed.uid(0), 3u}}));
  bed.part(0, 1);

  auto save = [](const sm::SosNode& node) {
    su::Writer w;
    sb::RecordTable::save(
        w, [&node](su::Writer& out, sb::RecordTable& records) { node.save_state(out, records); });
    return w.take();
  };
  bed.node(0).detach();
  const su::Bytes saved = save(bed.node(0));
  su::Reader r{su::ByteView(saved)};
  sb::RecordTable records;
  ASSERT_TRUE(records.load(r) && bed.node(0).load_state(r, records) && r.done());
  EXPECT_EQ(save(bed.node(0)), saved);  // the restored snapshot renders the same text
  bed.node(0).attach(bed.sched, bed.net.endpoint(0));
  bed.meet(0, 1);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.back(), advertised());
  EXPECT_EQ(seen.back(), seen.front());
}

TEST(MwSeam, AdHocStateWithANonCanonicalAdvertIsRejected) {
  // The advertisement is restored by parsing its text, so only text that
  // Advert::render() writes may load: anything else would be re-saved
  // differently, or silently lose entries.
  Testbed bed(3);
  bed.node(1).follow(bed.uid(0));
  bed.node(0).publish(su::to_bytes("advertised"));
  bed.meet(0, 1);
  bed.part(0, 1);
  for (std::size_t i = 0; i < 3; ++i) bed.node(i).detach();
  su::Writer w;
  sb::RecordTable::save(w, [&](su::Writer& out, sb::RecordTable& records) {
    bed.node(1).adhoc().save_state(out, records);
  });
  const AdHocState good = AdHocState::parse(w.take());
  ASSERT_EQ(good.adverts.size(), 1u);
  const std::string key = good.adverts.begin()->first;

  AdHocState foreign_key = good;
  foreign_key.adverts["not-a-user-id"] = "1";
  AdHocState padded_number = good;
  padded_number.adverts[key] = "0" + good.adverts.at(key);
  AdHocState not_a_number = good;
  not_a_number.adverts[key] = "one";
  for (const AdHocState* bad : {&foreign_key, &padded_number, &not_a_number})
    EXPECT_FALSE(bad->loads_into(bed.node(2).adhoc()));
  EXPECT_TRUE(good.loads_into(bed.node(2).adhoc()));
}
