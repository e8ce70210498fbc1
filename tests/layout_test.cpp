// Binary-layout tests. Known answers pin the exact bytes of every
// serialized record type — wire frames, bundles, certificates, app records,
// routing blobs and checkpoint state — so a layout change cannot slip in
// unnoticed. The rejection sweep checks that each decoder fails closed on
// every strict prefix of a valid encoding and on one appended byte, and the
// allocation tests count what a received bundle, a delivered frame and a
// request for bundles already sent cost the heap.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "alleyoop/local_db.hpp"
#include "alleyoop/post.hpp"
#include "bundle/bundle.hpp"
#include "bundle/records.hpp"
#include "bundle/store.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "deploy/oracle.hpp"
#include "mw/routing.hpp"
#include "mw/schemes/prophet.hpp"
#include "mw/schemes/spray_wait.hpp"
#include "mw/sos_node.hpp"
#include "mw/wire.hpp"
#include "pki/bootstrap.hpp"
#include "pki/certificate.hpp"
#include "sim/multipeer.hpp"
#include "sim/scheduler.hpp"
#include "util/codec.hpp"

namespace sa = sos::alleyoop;
namespace sb = sos::bundle;
namespace sc = sos::crypto;
namespace sd = sos::deploy;
namespace sm = sos::mw;
namespace sp = sos::pki;
namespace ss = sos::sim;
namespace su = sos::util;

// Counts heap allocations in this test binary, for the allocation tests.
namespace {
std::size_t g_allocations = 0;
}  // namespace

// GCC sees the replaced operator delete inlined as free() of new'd memory;
// here that pairing is the replacement itself.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

/// N bytes counting up from `first`: distinct, recognizable field contents.
template <std::size_t N>
std::array<std::uint8_t, N> ramp(std::uint8_t first) {
  std::array<std::uint8_t, N> a{};
  for (std::size_t i = 0; i < N; ++i) a[i] = static_cast<std::uint8_t>(first + i);
  return a;
}

sp::UserId uid(std::uint8_t first) {
  sp::UserId u;
  u.bytes = ramp<sp::kUserIdSize>(first);
  return u;
}

std::string hex(const su::Bytes& b) { return su::hex_encode(b); }

/// Long encodings are pinned by size and SHA-256.
std::string digest(const su::Bytes& b) {
  return std::to_string(b.size()) + ":" + su::hex_encode(sc::Sha256::hash(su::ByteView(b)));
}

sb::Bundle sample_bundle() {
  sb::Bundle b;
  b.origin = uid(0x10);
  b.msg_num = 7;
  b.creation_ts = 3600.5;
  b.lifetime_s = 86400;
  b.content = sb::ContentType::DirectMessage;
  b.dest = uid(0x20);
  b.hop_count = 3;
  b.payload = su::to_bytes("hello");
  b.signature = ramp<sc::kEdSignatureSize>(0x80);
  return b;
}

sp::Certificate sample_cert() {
  sp::Certificate c;
  c.serial = 42;
  c.subject_id = uid(0x10);
  c.subject_name = "alice";
  c.subject_key = ramp<sc::kEdPublicKeySize>(0x30);
  c.subject_enc_key = ramp<sc::kX25519KeySize>(0x50);
  c.issuer_name = "SOS-CA";
  c.not_before = 0;
  c.not_after = 1e6;
  c.signature = ramp<sc::kEdSignatureSize>(0xA0);
  return c;
}

sp::CertificateRequest sample_csr() {
  sp::CertificateRequest c;
  c.subject_id = uid(0x10);
  c.subject_name = "alice";
  c.subject_key = ramp<sc::kEdPublicKeySize>(0x30);
  c.subject_enc_key = ramp<sc::kX25519KeySize>(0x50);
  c.pop_signature = ramp<sc::kEdSignatureSize>(0xC0);
  return c;
}

sm::HelloFrame sample_hello() {
  sm::HelloFrame f;
  f.certificate = sample_cert().encode();
  f.ephemeral_pub = ramp<sc::kX25519KeySize>(0x60);
  f.binding_sig = ramp<sc::kEdSignatureSize>(0x90);
  return f;
}

sm::ResumeFrame sample_resume() {
  sm::ResumeFrame f;
  f.fingerprint = ramp<32>(0x01);
  f.nonce = ramp<32>(0x41);
  f.proof = ramp<32>(0x81);
  return f;
}

sm::SummaryFrame sample_summary() {
  sm::SummaryFrame f;
  f.entries[uid(0x10)] = 5;
  f.entries[uid(0x20)] = 300;
  f.unicast.push_back({sb::BundleId{uid(0x30), 9}, uid(0x40)});
  f.scheme_blob = su::to_bytes("xy");
  return f;
}

sm::RequestFrame sample_request() {
  sm::RequestFrame f;
  f.by_publisher.emplace_back(uid(0x10), 2);
  f.by_publisher.emplace_back(uid(0x20), 0);
  f.by_id.push_back(sb::BundleId{uid(0x30), 65536});
  return f;
}

sm::BundleDataFrame sample_bundle_data() {
  sm::BundleDataFrame f;
  f.bundle = sample_bundle().encode();
  f.origin_cert = sample_cert().encode();
  f.spray_copies = 4;
  return f;
}

sa::Post sample_post(std::uint32_t num = 3) {
  sa::Post p;
  p.author = uid(0x10);
  p.author_name = "alice";
  p.msg_num = num;
  p.created_at = 7200.25;
  p.text = "hi all";
  return p;
}

sa::SocialAction sample_action() {
  sa::SocialAction a;
  a.kind = sa::ActionKind::Unfollow;
  a.actor = uid(0x10);
  a.target = uid(0x20);
  a.at = 99.5;
  return a;
}

sa::LocalDb sample_db() {
  sa::LocalDb db;
  db.put_post(sample_post(3));
  db.put_post(sample_post(4));
  db.put_action(sample_action());
  db.mark_local_post(uid(0x10), 4);
  return db;
}

/// Scheme driver: a context over an empty store at a fixed clock.
struct SchemeHarness {
  sp::UserId self = uid(0x70);
  std::set<sp::UserId> subscriptions{uid(0x10), uid(0x20)};
  sb::BundleStore store;
  sm::RoutingContext ctx(double now) { return sm::RoutingContext(self, subscriptions, store, now); }
};

su::Bytes prophet_blob(const std::vector<std::pair<sp::UserId, double>>& table) {
  su::Writer w;
  w.varint(table.size());
  for (const auto& [u, p] : table) {
    w.raw(u.view());
    w.f64(p);
  }
  return w.take();
}

su::Bytes spray_blob(const std::vector<sp::UserId>& subs) {
  su::Writer w;
  w.varint(subs.size());
  for (const auto& u : subs) w.raw(u.view());
  return w.take();
}

/// A PRoPHET scheme with a direct entry, a transitive entry and one peer table.
sm::ProphetScheme sample_prophet(SchemeHarness& h) {
  sm::ProphetScheme s;
  s.on_encounter(h.ctx(1800), uid(0x10));
  s.on_peer_blob(uid(0x10), prophet_blob({{uid(0x20), 0.5}, {uid(0x30), 0.25}}));
  return s;
}

sm::SprayAndWaitScheme sample_spray() {
  sm::SprayAndWaitScheme s(8);
  s.on_published(sb::BundleId{uid(0x70), 1});
  s.on_received_copies(sb::BundleId{uid(0x10), 2}, 3);
  s.on_peer_blob(uid(0x10), spray_blob({uid(0x20), uid(0x30)}));
  return s;
}

template <class State>
su::Bytes saved(const State& s) {
  su::Writer w;
  s.save_state(w);
  return w.take();
}

/// A state that refers into a record table, saved behind its table.
template <class State>
su::Bytes saved_with_records(const State& s) {
  su::Writer w;
  sb::RecordTable::save(w, [&s](su::Writer& out, sb::RecordTable& records) {
    s.save_state(out, records);
  });
  return w.take();
}

/// A table holding one record of each kind, then one reference to each.
su::Bytes sample_table() {
  const sb::Bundle bundle = sample_bundle();
  const sp::Certificate cert = sample_cert();
  const sb::Verdict verdict{bundle.id(), ramp<32>(0xD0)};
  su::Writer w;
  sb::RecordTable::save(w, [&](su::Writer& out, sb::RecordTable& records) {
    records.put(out, bundle);
    records.put(out, cert);
    records.put(out, verdict);
  });
  return w.take();
}

sb::BundleStore sample_store() {
  sb::BundleStore store;
  sb::Bundle a = sample_bundle();
  store.insert(a, 4000.0);
  sb::Bundle b = sample_bundle();
  b.msg_num = 8;
  b.hop_count = 0;
  b.content = sb::ContentType::SocialPost;
  b.dest = sp::UserId{};
  store.insert(b, 4100.0);
  return store;
}

}  // namespace

// --- known answers: encode() and signing_bytes() ----------------------------

TEST(LayoutKat, Bundle) {
  sb::Bundle b = sample_bundle();
  EXPECT_EQ(hex(b.encode()),
            "101112131415161718190000000740ac2100000000000001518001202122232425262728"
            "29030568656c6c6f808182838485868788898a8b8c8d8e8f909192939495969798999a9b"
            "9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf");
  EXPECT_EQ(hex(b.signing_bytes()),
            "0d736f732d62756e646c652d7631101112131415161718190000000740ac210000000000"
            "0001518001202122232425262728290568656c6c6f");
}

TEST(LayoutKat, Certificate) {
  sp::Certificate c = sample_cert();
  EXPECT_EQ(digest(c.encode()),
            "175:0fbaf3eac9574c770ff0315158df7a36a1ed92af2acdf2a92a69d23e17a47751");
  EXPECT_EQ(digest(c.signing_bytes()),
            "123:6303dfc083badd32a6cdb1c7067f76635541c1e443681587558c23c4b2ea2c9d");
}

TEST(LayoutKat, CertificateRequest) {
  sp::CertificateRequest c = sample_csr();
  EXPECT_EQ(digest(c.encode()),
            "144:fe43fbbc56bd7d2dc343ae34f15174544c37de7b6889d9e9754fb64b6a76072f");
  EXPECT_EQ(digest(c.signing_bytes()),
            "91:64587d6a8ddd0d31614fdb56556de859ef786be86f71e7ed712a7532f1dc233c");
}

TEST(LayoutKat, HelloFrame) {
  sm::HelloFrame f = sample_hello();
  EXPECT_EQ(digest(f.encode()),
            "273:cf8c6f874e5fb986f47d34ce910c97c1c9f9f5e4bf0ea91e17d1d2962a17fe54");
  EXPECT_EQ(hex(f.signing_bytes()),
            "0c736f732d68656c6c6f2d7631606162636465666768696a6b6c6d6e6f70717273747576"
            "7778797a7b7c7d7e7f");
}

TEST(LayoutKat, ResumeFrame) {
  sm::ResumeFrame f = sample_resume();
  EXPECT_EQ(hex(f.encode()),
            "0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2041424344"
            "45464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f608182838485868788"
            "898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0");
  EXPECT_EQ(hex(f.signing_bytes()),
            "0d736f732d726573756d652d76310102030405060708090a0b0c0d0e0f10111213141516"
            "1718191a1b1c1d1e1f204142434445464748494a4b4c4d4e4f505152535455565758595a"
            "5b5c5d5e5f60");
}

TEST(LayoutKat, SummaryFrame) {
  EXPECT_EQ(hex(sample_summary().encode()),
            "021011121314151617181900000005202122232425262728290000012c01303132333435"
            "363738390000000940414243444546474849027879");
}

TEST(LayoutKat, RequestFrame) {
  EXPECT_EQ(hex(sample_request().encode()),
            "021011121314151617181900000002202122232425262728290000000001303132333435"
            "3637383900010000");
}

TEST(LayoutKat, BundleDataFrame) {
  EXPECT_EQ(digest(sample_bundle_data().encode()),
            "290:94bcba0bc55c253b0e122e1cf0a292d0c7452d14351b58e18c6716c22cfdde42");
}

TEST(LayoutKat, BundleDataRefEncodesTheFrame) {
  // Senders encode a BundleData frame straight from the decoded bundle and
  // certificate; the bytes must be the pinned frame's. The certificate
  // needs a two-byte length prefix, and so does a bundle with a long
  // payload.
  sb::Bundle bundle = sample_bundle();
  const sp::Certificate cert = sample_cert();
  EXPECT_EQ(su::encode(sm::BundleDataRef{bundle, cert, 4}), sample_bundle_data().encode());
  EXPECT_GT(cert.encode().size(), 127u);
  bundle.payload.assign(300, 0x42);
  sm::BundleDataFrame frame;
  frame.bundle = bundle.encode();
  frame.origin_cert = cert.encode();
  EXPECT_EQ(su::encode(sm::BundleDataRef{bundle, cert, 0}), frame.encode());
}

TEST(LayoutKat, PostAndSocialAction) {
  EXPECT_EQ(hex(sample_post().encode()),
            "1011121314151617181905616c6963650000000340bc20400000000006686920616c6c");
  EXPECT_EQ(hex(sample_action().encode()),
            "0110111213141516171819202122232425262728294058e00000000000");
}

TEST(LayoutKat, LocalDbSnapshot) {
  EXPECT_EQ(digest(sample_db().serialize()),
            "134:8e25d8071bc9d7c9768db1a8f5ea88d7ebda12b3a1a8fbae9ff71fb00963a5e3");
}

TEST(LayoutKat, ProphetBlobAndState) {
  SchemeHarness h;
  sm::ProphetScheme s = sample_prophet(h);
  EXPECT_EQ(hex(s.summary_blob(h.ctx(1800))),
            "03101112131415161718193fe8000000000000202122232425262728293fb80000000000"
            "00303132333435363738393fa8000000000000");
  EXPECT_EQ(hex(saved(s)),
            "409c20000000000003101112131415161718193fe8000000000000202122232425262728"
            "293fb8000000000000303132333435363738393fa8000000000000011011121314151617"
            "181902202122232425262728293fe0000000000000303132333435363738393fd0000000"
            "000000");
}

TEST(LayoutKat, SprayBlobAndState) {
  SchemeHarness h;
  sm::SprayAndWaitScheme s = sample_spray();
  EXPECT_EQ(hex(s.summary_blob(h.ctx(0))), "021011121314151617181920212223242526272829");
  EXPECT_EQ(hex(saved(s)),
            "021011121314151617181900000002000000037071727374757677787900000001000000"
            "080110111213141516171819022021222324252627282930313233343536373839");
}

TEST(LayoutKat, BundleStoreState) {
  EXPECT_EQ(digest(saved_with_records(sample_store())),
            "256:7845053491a135fba1e6e4196b0f35f7f2461ea1457626496a2149900c593516");
}

TEST(LayoutKat, DrbgState) {
  sc::Drbg d(su::to_bytes("layout-kat"));
  d.generate(5);
  d.generate(7);
  EXPECT_EQ(hex(saved(d)),
            "ac345e66f7321200979d3c754a73ad48f7c3e9303ac7079d0b0e55465ea8217400000000"
            "00000002");
}

// --- fail-closed decoders -----------------------------------------------------

namespace {

using Accepts = std::function<bool(su::ByteView)>;

/// `valid` is accepted; every strict prefix of it and `valid` plus one byte
/// are refused.
void expect_exact(const char* what, const su::Bytes& valid, const Accepts& accepts) {
  ASSERT_TRUE(accepts(valid)) << what;
  for (std::size_t n = 0; n < valid.size(); ++n)
    EXPECT_FALSE(accepts(su::ByteView(valid.data(), n))) << what << ": prefix of " << n;
  su::Bytes longer = valid;
  longer.push_back(0);
  EXPECT_FALSE(accepts(longer)) << what << ": one byte appended";
}

template <class T>
Accepts decodes() {
  return [](su::ByteView b) { return T::decode(b).has_value(); };
}

/// load_state must fail, or stop short of the end, on anything but an
/// exact saved state. A failed load leaves the target untouched.
template <class State>
Accepts loads_into(State& target) {
  return [&target](su::ByteView b) {
    su::Reader r(b);
    return target.load_state(r) && r.done();
  };
}

/// Like loads_into, for a state that refers into the record table ahead of it.
template <class State>
Accepts loads_with_records(State& target) {
  return [&target](su::ByteView b) {
    su::Reader r(b);
    sb::RecordTable records;
    return records.load(r) && target.load_state(r, records) && r.done();
  };
}

/// A payload's record table, decoded so a test can corrupt it, and the
/// bytes that follow it.
struct TableMirror {
  std::vector<sb::Bundle> bundles;
  std::vector<sp::Certificate> certs;
  std::vector<sb::Verdict> verdicts;
  su::Bytes rest;

  static TableMirror parse(const su::Bytes& blob) {
    TableMirror t;
    su::Reader r{su::ByteView(blob)};
    t.bundles.resize(r.varint());
    for (sb::Bundle& b : t.bundles) su::get_shared(r, b);
    su::get(r, t.certs, t.verdicts);
    t.rest = r.raw(r.remaining());
    EXPECT_TRUE(r.done());
    return t;
  }
  su::Bytes encode() const {
    su::Writer w;
    w.varint(bundles.size());
    for (const sb::Bundle& b : bundles) su::put_shared(w, b);
    su::put(w, certs, verdicts);
    w.raw(rest);
    return w.take();
  }
};

/// A scheme takes a peer blob only if its state changes.
template <class Scheme>
Accepts takes_blob() {
  return [](su::ByteView b) {
    Scheme s;
    s.on_peer_blob(uid(0x10), b);
    return saved(s) != saved(Scheme{});
  };
}

}  // namespace

TEST(LayoutReject, WireFrames) {
  expect_exact("Hello", sample_hello().encode(), decodes<sm::HelloFrame>());
  expect_exact("Resume", sample_resume().encode(), decodes<sm::ResumeFrame>());
  expect_exact("Summary", sample_summary().encode(), decodes<sm::SummaryFrame>());
  expect_exact("Request", sample_request().encode(), decodes<sm::RequestFrame>());
  expect_exact("BundleData", sample_bundle_data().encode(), decodes<sm::BundleDataFrame>());
}

TEST(LayoutReject, BundleAndCertificates) {
  expect_exact("Bundle", sample_bundle().encode(), decodes<sb::Bundle>());
  expect_exact("Certificate", sample_cert().encode(), decodes<sp::Certificate>());
  expect_exact("CertificateRequest", sample_csr().encode(), decodes<sp::CertificateRequest>());
}

TEST(LayoutReject, AppRecords) {
  expect_exact("Post", sample_post().encode(), decodes<sa::Post>());
  expect_exact("SocialAction", sample_action().encode(), decodes<sa::SocialAction>());
  expect_exact("LocalDb", sample_db().serialize(),
               [](su::ByteView b) { return sa::LocalDb::deserialize(b).has_value(); });
}

TEST(LayoutReject, RoutingBlobs) {
  SchemeHarness h;
  expect_exact("prophet blob", sample_prophet(h).summary_blob(h.ctx(1800)),
               takes_blob<sm::ProphetScheme>());
  expect_exact("spray blob", sample_spray().summary_blob(h.ctx(0)),
               takes_blob<sm::SprayAndWaitScheme>());
}

TEST(LayoutReject, CheckpointStates) {
  SchemeHarness h;
  sb::BundleStore store;
  expect_exact("store", saved_with_records(sample_store()), loads_with_records(store));
  expect_exact("record table", sample_table(), [](su::ByteView b) {
    su::Reader r(b);
    sb::RecordTable records;
    return records.load(r) && records.bundle(r) && records.cert(r) && records.verdict(r) &&
           r.done();
  });
  sc::Drbg drbg(su::to_bytes("target"));
  expect_exact("drbg", saved(sc::Drbg(su::to_bytes("layout-kat"))), loads_into(drbg));
  sm::ProphetScheme prophet;
  expect_exact("prophet state", saved(sample_prophet(h)), loads_into(prophet));
  sm::SprayAndWaitScheme spray;
  expect_exact("spray state", saved(sample_spray()), loads_into(spray));
}

TEST(LayoutReject, RecordTableIndicesAndEntries) {
  const su::Bytes valid = saved_with_records(sample_store());
  const TableMirror good = TableMirror::parse(valid);
  ASSERT_EQ(good.encode(), valid);
  ASSERT_EQ(good.bundles.size(), 2u);
  // Each copy keeps its own hop count; the table entry carries none.
  EXPECT_EQ(good.bundles[0].hop_count, 0u);

  // An index past the table: without its last entry, the copy naming it
  // refers one past the end.
  TableMirror short_table = good;
  short_table.bundles.pop_back();
  sb::BundleStore target;
  EXPECT_FALSE(loads_with_records(target)(short_table.encode()));
  EXPECT_EQ(target.size(), 0u);

  // A repeated entry, in each pool.
  TableMirror tables = TableMirror::parse(sample_table());
  ASSERT_TRUE(tables.certs.size() == 1 && tables.verdicts.size() == 1);
  TableMirror twice_bundled = good;
  twice_bundled.bundles.push_back(good.bundles[0]);
  TableMirror twice_certified = tables;
  twice_certified.certs.push_back(tables.certs[0]);
  TableMirror twice_verified = tables;
  twice_verified.verdicts.push_back(tables.verdicts[0]);
  for (const TableMirror* bad : {&twice_bundled, &twice_certified, &twice_verified}) {
    su::Bytes blob = bad->encode();
    su::Reader r{su::ByteView(blob)};
    sb::RecordTable records;
    EXPECT_FALSE(records.load(r));
  }
  // Entries equal but for a per-copy field are one entry: the bodies match.
  TableMirror hopped = good;
  hopped.bundles.push_back(good.bundles[0]);
  hopped.bundles.back().hop_count = 9;
  EXPECT_EQ(hopped.encode(), twice_bundled.encode());

  // A truncated table: the pools end early, so no state can follow.
  su::Bytes truncated(valid.begin(), valid.end() - static_cast<std::ptrdiff_t>(good.rest.size()) - 1);
  su::Reader r{su::ByteView(truncated)};
  sb::RecordTable records;
  EXPECT_FALSE(records.load(r));
}

TEST(LayoutReject, OracleRecords) {
  sd::PostRecord post{sb::BundleId{uid(0x10), 3}, uid(0x10), 7200.25, {12.5, -3.0}};
  sd::DeliveryRecord delivery{sb::BundleId{uid(0x10), 3}, uid(0x20), 9000.0, 2, {1.0, 2.0}};
  sd::CarryRecord carry{sb::BundleId{uid(0x10), 3}, uid(0x30), 8000.0, {4.0, 5.0}};
  expect_exact("PostRecord", su::encode(post),
               [](su::ByteView b) { return su::decode<sd::PostRecord>(b).has_value(); });
  expect_exact("DeliveryRecord", su::encode(delivery),
               [](su::ByteView b) { return su::decode<sd::DeliveryRecord>(b).has_value(); });
  expect_exact("CarryRecord", su::encode(carry),
               [](su::ByteView b) { return su::decode<sd::CarryRecord>(b).has_value(); });
}

TEST(LayoutReject, InvalidFieldValues) {
  // Enum fields are range-checked: one past the last kind is refused.
  su::Bytes action = sample_action().encode();
  action[0] = 2;
  EXPECT_FALSE(sa::SocialAction::decode(action).has_value());
  // A list count larger than the bytes that follow is refused before any
  // element is read.
  su::Bytes request = sample_request().encode();
  request[0] = 0x7f;
  EXPECT_FALSE(sm::RequestFrame::decode(request).has_value());
}

// --- allocations on the reception path ----------------------------------------

TEST(LayoutAllocations, ReceptionPathAllocatesOnlyOwnedBuffers) {
  // A received BundleData frame is decoded into its bundle and certificate
  // and both signing_bytes() are built for verification. Fixed-size fields
  // are read in place and every encoding is sized before it is written, so
  // the only allocations left are the buffers the decoded values own: the
  // frame's two byte strings and the bundle payload (the certificate's short
  // names fit in the string's inline storage), then one per signed buffer.
  su::Bytes wire = sample_bundle_data().encode();
  std::size_t before = g_allocations;
  auto frame = sm::BundleDataFrame::decode(wire);
  auto bundle = sb::Bundle::decode(frame->bundle);
  auto cert = sp::Certificate::decode(frame->origin_cert);
  ASSERT_TRUE(bundle && cert);
  EXPECT_LE(g_allocations - before, 3u);
  before = g_allocations;
  su::Bytes bundle_signed = bundle->signing_bytes();
  su::Bytes cert_signed = cert->signing_bytes();
  EXPECT_EQ(g_allocations - before, 2u);
}

TEST(LayoutAllocations, DeliveredFrameIsNotCopied) {
  // The network hands the receiver the very buffer the sender gave it.
  ss::Scheduler sched;
  ss::MpcNetwork net(sched, 2);
  net.endpoint(1).start_advertising(ss::DiscoveryInfo{});
  net.set_in_range(0, 1, true);
  net.endpoint(0).invite(1);
  sched.run_all();
  ASSERT_TRUE(net.endpoint(0).is_connected(1));
  const std::uint8_t* received = nullptr;
  net.endpoint(1).on_receive = [&received](ss::PeerId, su::Bytes frame) {
    received = frame.data();
  };
  su::Bytes frame(1000, 0x5a);
  const std::uint8_t* sent = frame.data();
  net.endpoint(0).send(1, std::move(frame));
  std::size_t before = g_allocations;
  sched.run_all();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(received, sent);
}

TEST(LayoutAllocations, RequestForBundlesAlreadySentAllocatesNothing) {
  // A redundant request, for bundles this session already carried, costs
  // one iterator step per bundle: nothing is copied out of the store.
  ss::Scheduler sched;
  ss::MpcNetwork net(sched, 2);
  sp::BootstrapService infra{su::to_bytes("alloc-infra")};
  sm::SosConfig config;
  config.scheme = "epidemic";
  config.maintenance_interval_s = 0;
  std::vector<std::unique_ptr<sm::SosNode>> nodes;
  for (ss::PeerId i = 0; i < 2; ++i) {
    sc::Drbg device(su::to_bytes("alloc-device-" + std::to_string(i)));
    auto creds = infra.signup("alloc" + std::to_string(i), device, 0);
    nodes.push_back(std::make_unique<sm::SosNode>(sched, net.endpoint(i), std::move(*creds),
                                                  config));
    nodes.back()->start();
  }
  for (int k = 0; k < 4; ++k) nodes[0]->publish(su::to_bytes("post " + std::to_string(k)));
  net.set_in_range(0, 1, true);
  sched.run_all();
  ASSERT_EQ(nodes[0]->messages().sent_to(1).size(), 4u);
  ASSERT_EQ(nodes[1]->store().size(), 4u);

  sm::RequestFrame request;
  request.by_publisher.emplace_back(nodes[0]->user_id(), 0);
  request.by_publisher.emplace_back(nodes[0]->user_id(), 2);
  request.by_id.push_back({nodes[0]->user_id(), 3});
  const std::uint64_t sent_before = nodes[0]->stats().bundles_sent;
  std::size_t before = g_allocations;
  nodes[0]->messages().on_request(1, request);
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(nodes[0]->stats().bundles_sent, sent_before);
}
