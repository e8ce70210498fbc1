// Soak suite (`ctest -L soak`): the versioned checkpoint codec and its
// rejection paths, checkpoint/resume bitwise-identity pins across the mono
// and strand replay paths and worker counts (the property the month-scale soak
// harness rests on), the rolling-window anomaly detector, and the
// time-scale regression tests the soak audit produced — resumption-ticket
// re-mint cadence, PRoPHET table pruning at month horizons, and
// encounter-detector tick-grid anchoring.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bundle/records.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "deploy/replay.hpp"
#include "deploy/scenario.hpp"
#include "mw/schemes/prophet.hpp"
#include "mw/sos_node.hpp"
#include "pki/bootstrap.hpp"
#include "sim/multipeer.hpp"
#include "sim/radio.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "soak/anomaly.hpp"
#include "soak/checkpoint.hpp"
#include "soak/jsonl.hpp"
#include "soak/runner.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"
#include "run_fingerprint.hpp"

namespace sb = sos::bundle;
namespace sc = sos::crypto;
namespace sd = sos::deploy;
namespace sk = sos::soak;
namespace sm = sos::mw;
namespace sp = sos::pki;
namespace ss = sos::sim;
namespace su = sos::util;

namespace {

/// Checkpoint pins run two days: one-day cells rarely open any session, and
/// a checkpoint of an idle fleet pins nothing.
sd::ScenarioConfig small_config(const std::string& scheme, std::uint64_t seed,
                                double days = 1.0) {
  sd::ScenarioConfig c = sd::gainesville_config(scheme, seed);
  c.nodes = 12;
  c.area_w_m = 1800;
  c.area_h_m = 1800;
  c.days = days;
  c.total_posts_target = 50;
  return c;
}

struct EngineOpt {
  const char* name;
  sd::ReplayOptions opt;
};

std::vector<EngineOpt> all_engines() {
  return {{"mono", {}},
          {"strand-j1", {.subepisode_jobs = 1}},
          {"strand-j2", {.subepisode_jobs = 2}},
          {"strand-j4", {.subepisode_jobs = 4}}};
}

/// A ReplaySession payload split at the fields load_state range-checks —
/// sim time, record table, per-node blobs, timeline cursors, resume
/// points — so a test can re-encode it with one field corrupted.
struct SessionPayload {
  double now = 0;
  su::Bytes table;
  std::vector<su::Bytes> nodes;
  std::vector<std::uint64_t> cursors;
  std::vector<double> resume;
  su::Bytes rest;

  static SessionPayload parse(const su::Bytes& blob) {
    SessionPayload p;
    su::Reader r{su::ByteView(blob)};
    p.now = r.f64();
    su::Reader at_table = r;
    sb::RecordTable records;
    EXPECT_TRUE(records.load(r));
    p.table = at_table.raw(at_table.remaining() - r.remaining());
    p.nodes.resize(r.varint());
    for (auto& n : p.nodes) n = r.bytes();
    p.cursors.resize(p.nodes.size());
    for (auto& c : p.cursors) c = r.varint();
    p.resume.resize(p.nodes.size());
    for (auto& t : p.resume) t = r.f64();
    p.rest = r.raw(r.remaining());
    EXPECT_TRUE(r.done());
    return p;
  }
  su::Bytes encode() const {
    su::Writer w;
    w.f64(now);
    w.raw(su::ByteView(table));
    w.varint(nodes.size());
    for (const auto& n : nodes) w.bytes(su::ByteView(n));
    for (std::uint64_t c : cursors) w.varint(c);
    for (double t : resume) w.f64(t);
    w.raw(su::ByteView(rest));
    return w.take();
  }
};

sk::Checkpoint sample_checkpoint() {
  sk::Checkpoint c;
  c.segment = 7;
  c.sim_time = 12345.5;
  for (std::size_t i = 0; i < c.world_digest.size(); ++i) {
    c.world_digest[i] = static_cast<std::uint8_t>(i);
  }
  c.payload = su::to_bytes("node-state-payload");
  return c;
}

std::string temp_dir(const std::string& leaf) {
  auto dir = std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  return dir.string();
}

}  // namespace

// --- checkpoint codec -------------------------------------------------------

TEST(CheckpointCodec, RoundTripPreservesEveryField) {
  sk::Checkpoint c = sample_checkpoint();
  su::Bytes encoded = sk::encode_checkpoint(c);
  std::string error;
  auto decoded = sk::decode_checkpoint(su::ByteView(encoded), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->segment, c.segment);
  EXPECT_EQ(decoded->sim_time, c.sim_time);
  EXPECT_EQ(decoded->world_digest, c.world_digest);
  EXPECT_EQ(decoded->payload, c.payload);
}

TEST(CheckpointCodec, TruncationRejectedAtEveryLength) {
  su::Bytes encoded = sk::encode_checkpoint(sample_checkpoint());
  for (std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{40},
                          encoded.size() - 33, encoded.size() - 1}) {
    std::string error;
    su::ByteView cut(encoded.data(), len);
    EXPECT_FALSE(sk::decode_checkpoint(cut, &error).has_value()) << len;
    EXPECT_FALSE(error.empty()) << len;
  }
  // Short inputs get the pointed truncation diagnostic.
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(encoded.data(), 12), &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(CheckpointCodec, BadMagicRejected) {
  su::Bytes encoded = sk::encode_checkpoint(sample_checkpoint());
  encoded[0] = 'X';
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(encoded), &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(CheckpointCodec, FutureVersionRejectedWithDiagnostic) {
  // Hand-build a well-formed version-99 checkpoint (valid integrity hash,
  // so the rejection is purely the forward-compat version gate).
  sk::Checkpoint c = sample_checkpoint();
  su::Bytes v1 = sk::encode_checkpoint(c);
  su::Bytes future = v1;
  future[11] = 99;  // big-endian u32 version right after the 8-byte magic
  // Recompute the trailing hash over the altered body.
  su::ByteView body(future.data(), future.size() - 32);
  auto hash = sc::Sha256::hash(body);
  std::copy(hash.begin(), hash.end(), future.end() - 32);
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(future), &error).has_value());
  EXPECT_NE(error.find("version 99"), std::string::npos) << error;
  EXPECT_NE(error.find("newer"), std::string::npos) << error;
}

TEST(CheckpointCodec, OlderVersionRejectedWithDiagnostic) {
  // Well-formed files of every older version: version 1 lays its payload
  // out without the record table, version 2 still carries the verify-flush
  // deadline and the batch-verify counters in each node's state. Both must
  // be refused by version, never parsed.
  ASSERT_GT(sk::kCheckpointVersion, 2u);
  for (std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2}}) {
    const std::string older_than = "version " + std::to_string(version) + " is older";
    su::Bytes older = sk::encode_checkpoint(sample_checkpoint());
    older[11] = version;
    su::ByteView body(older.data(), older.size() - 32);
    auto hash = sc::Sha256::hash(body);
    std::copy(hash.begin(), hash.end(), older.end() - 32);
    std::string error;
    EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(older), &error).has_value());
    EXPECT_NE(error.find(older_than), std::string::npos) << error;
    EXPECT_NE(error.find("supported version " + std::to_string(sk::kCheckpointVersion)),
              std::string::npos)
        << error;
    // With a stale hash the version is still what the diagnostic names.
    older.back() ^= 1;
    EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(older), &error).has_value());
    EXPECT_NE(error.find(older_than), std::string::npos) << error;
  }
}

TEST(CheckpointCodec, TrailingBytesRejected) {
  // Craft a body with junk after the payload and a matching hash: only the
  // done() check can catch this one.
  sk::Checkpoint c = sample_checkpoint();
  su::Bytes v1 = sk::encode_checkpoint(c);
  su::Bytes padded(v1.begin(), v1.end() - 32);
  padded.push_back(0xEE);
  auto hash = sc::Sha256::hash(su::ByteView(padded));
  padded.insert(padded.end(), hash.begin(), hash.end());
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(padded), &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(CheckpointCodec, BitFlipRejectedByIntegrityHash) {
  su::Bytes encoded = sk::encode_checkpoint(sample_checkpoint());
  encoded[encoded.size() / 2] ^= 0x40;
  std::string error;
  EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(encoded), &error).has_value());
  EXPECT_NE(error.find("integrity"), std::string::npos) << error;
}

TEST(CheckpointCodec, LargePayloadRoundTripsAndEveryFlipIsRejected) {
  // Checkpoint-sized (the community soak's grow to ~7 MB): the integrity
  // pass runs the multi-block hash kernel over the whole file.
  sk::Checkpoint c = sample_checkpoint();
  c.payload = sc::Drbg(su::to_bytes("large-payload")).generate(std::size_t{8} << 20);
  su::Bytes encoded = sk::encode_checkpoint(c);
  std::string error;
  auto decoded = sk::decode_checkpoint(su::ByteView(encoded), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(decoded->payload, c.payload);
  // The payload is the last field before the 32-byte trailing hash.
  const std::size_t payload_start = encoded.size() - 32 - c.payload.size();
  for (std::size_t at : {std::size_t{0}, c.payload.size() / 2, c.payload.size() - 1}) {
    su::Bytes flipped = encoded;
    flipped[payload_start + at] ^= 0x01;
    error.clear();
    EXPECT_FALSE(sk::decode_checkpoint(su::ByteView(flipped), &error).has_value()) << at;
    EXPECT_NE(error.find("integrity"), std::string::npos) << at << ": " << error;
  }
}

TEST(CheckpointStore, SavesAtomicallyAndLoadsHighestSegment) {
  sk::CheckpointStore store(temp_dir("ckpt-store"));
  sk::Checkpoint c = sample_checkpoint();
  std::string error;
  c.segment = 2;
  ASSERT_TRUE(store.save(c, &error)) << error;
  c.segment = 10;
  c.sim_time = 99999.0;
  ASSERT_TRUE(store.save(c, &error)) << error;
  auto latest = store.load_latest(&error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->segment, 10u);
  EXPECT_EQ(latest->sim_time, 99999.0);
  // No half-written temp files survive a successful save.
  for (const auto& entry : std::filesystem::directory_iterator(store.dir())) {
    EXPECT_EQ(entry.path().extension(), ".bin") << entry.path();
  }
}

TEST(CheckpointStore, MultiMegabytePayloadRoundTripsThroughDisk) {
  // Checkpoint-sized: the file is read back in one sized read.
  sk::CheckpointStore store(temp_dir("ckpt-large"));
  sk::Checkpoint c = sample_checkpoint();
  c.payload = sc::Drbg(su::to_bytes("large-on-disk")).generate(std::size_t{3} << 20);
  std::string error;
  ASSERT_TRUE(store.save(c, &error)) << error;
  auto loaded = store.load_latest(&error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->payload, c.payload);
  EXPECT_EQ(loaded->segment, c.segment);
  EXPECT_EQ(loaded->sim_time, c.sim_time);
  EXPECT_EQ(loaded->world_digest, c.world_digest);
  EXPECT_EQ(std::filesystem::file_size(store.dir() + "/ckpt-7.bin"),
            sk::encode_checkpoint(c).size());
}

TEST(CheckpointStore, LoadLatestSkipsNamesSaveNeverWrites) {
  // Each stray name holds a valid checkpoint of another segment, so loading
  // any of them instead of ckpt-2.bin shows up in the segment field.
  sk::CheckpointStore store(temp_dir("ckpt-names"));
  sk::Checkpoint c = sample_checkpoint();
  std::string error;
  c.segment = 2;
  ASSERT_TRUE(store.save(c, &error)) << error;
  c.segment = 3;
  su::Bytes stray = sk::encode_checkpoint(c);
  for (const char* name : {"ckpt--1.bin", "ckpt- 7.bin", "ckpt-+9.bin", "ckpt-3 copy.bin",
                           "ckpt-007.bin", "ckpt-.bin", "ckpt-18446744073709551616.bin",
                           "ckpt-4.bin.tmp", "ckpt-5x.bin"}) {
    std::ofstream out(store.dir() + "/" + name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(stray.data()),
              static_cast<std::streamsize>(stray.size()));
  }
  auto latest = store.load_latest(&error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->segment, 2u);
}

TEST(CheckpointStore, CorruptFileRejectedNotPartiallyLoaded) {
  sk::CheckpointStore store(temp_dir("ckpt-corrupt"));
  std::filesystem::create_directories(store.dir());
  std::ofstream(store.dir() + "/ckpt-1.bin") << "this is not a checkpoint";
  std::string error;
  EXPECT_FALSE(store.load_latest(&error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointCodec, WorldDigestDistinguishesWorlds) {
  sd::ScenarioConfig config = small_config("interest", 5);
  config.nodes = 6;
  config.days = 0.25;
  auto world = sd::record_world(config);
  auto base = sk::world_digest(config, *world);
  sd::ScenarioConfig other = config;
  other.seed = 6;
  EXPECT_NE(base, sk::world_digest(other, *world));
  sd::ScenarioConfig scheme_flip = config;
  scheme_flip.scheme = "epidemic";
  EXPECT_NE(base, sk::world_digest(scheme_flip, *world));
  // Fields that change a resumed run without changing the contact trace.
  std::vector<std::pair<const char*, std::function<void(sd::ScenarioConfig&)>>> changes = {
      {"faults", [](sd::ScenarioConfig& c) { c.faults.adversaries.grayhole_frac = 0.2; }},
      {"bandwidth", [](sd::ScenarioConfig& c) { c.radio.bandwidth_bps /= 2; }},
      {"latency", [](sd::ScenarioConfig& c) { c.radio.latency_s += 0.01; }},
      {"setup time", [](sd::ScenarioConfig& c) { c.radio.setup_time_s += 0.5; }},
      {"post window start", [](sd::ScenarioConfig& c) { c.post_window_start_h = 17.0; }},
      {"post window end", [](sd::ScenarioConfig& c) { c.post_window_end_h = 22.0; }},
      {"social", [](sd::ScenarioConfig& c) { c.social = sd::scenario_social_graph(c); }},
  };
  for (const auto& [name, change] : changes) {
    sd::ScenarioConfig changed = config;
    change(changed);
    EXPECT_NE(base, sk::world_digest(changed, *world)) << name;
  }
}

// --- checkpoint/resume determinism pins -------------------------------------

TEST(SoakResume, CheckpointResumeBitwiseIdenticalOnEveryEngine) {
  sd::ScenarioConfig config = small_config("interest", su::derive_seed(77, 26), 2.0);
  auto world = sd::record_world(config);
  ASSERT_GT(world->trace.size(), 0u);
  RunFingerprint baseline = fingerprint(sd::run_scenario(config, world.get()));
  ASSERT_GT(baseline.totals.sessions_established, 0u);
  for (const EngineOpt& e : all_engines()) {
    // One uninterrupted session equals the single-scheduler replay.
    sd::ReplaySession whole(config, *world, e.opt);
    whole.advance_to(whole.horizon());
    EXPECT_EQ(baseline, fingerprint(whole.finish())) << e.name;

    // Checkpoint at a mid-run quiescent cut, resume in a fresh session,
    // round-tripping the state through the full checkpoint codec.
    sd::ReplaySession first(config, *world, e.opt);
    std::vector<su::SimTime> cuts = first.quiescent_cuts(60.0);
    ASSERT_FALSE(cuts.empty()) << e.name;
    first.advance_to(cuts[cuts.size() / 2]);
    sk::Checkpoint ckpt;
    ckpt.segment = 1;
    ckpt.sim_time = first.sim_time();
    ckpt.world_digest = sk::world_digest(config, *world);
    su::Writer w;
    first.save_state(w);
    ckpt.payload = w.take();
    std::string error;
    su::Bytes encoded = sk::encode_checkpoint(ckpt);
    auto decoded = sk::decode_checkpoint(su::ByteView(encoded), &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    sd::ReplaySession second(config, *world, e.opt);
    su::Reader r{su::ByteView(decoded->payload)};
    ASSERT_TRUE(second.load_state(r)) << e.name;
    second.advance_to(second.horizon());
    EXPECT_EQ(baseline, fingerprint(second.finish())) << e.name << " (resumed)";
  }
}

TEST(SoakResume, SegmentedAdvanceThroughEveryCutMatchesUninterrupted) {
  sd::ScenarioConfig config = small_config("epidemic", su::derive_seed(77, 15), 2.0);
  auto world = sd::record_world(config);
  RunFingerprint baseline = fingerprint(sd::run_scenario(config, world.get()));
  for (const EngineOpt& e :
       {EngineOpt{"mono", {}}, EngineOpt{"strand-j4", {.subepisode_jobs = 4}}}) {
    sd::ReplaySession session(config, *world, e.opt);
    std::vector<su::SimTime> cuts = session.quiescent_cuts(60.0);
    ASSERT_GE(cuts.size(), 2u) << e.name;
    for (su::SimTime cut : cuts) session.advance_to(cut);
    session.advance_to(session.horizon());
    EXPECT_EQ(baseline, fingerprint(session.finish())) << e.name;
  }
}

TEST(SoakResume, CheckpointCrossesEngines) {
  // Checkpoint under the strand engine at 4 workers, resume under it at 1
  // worker and under the mono session: node state is engine-agnostic.
  sd::ScenarioConfig config = small_config("interest", su::derive_seed(77, 4), 2.0);
  auto world = sd::record_world(config);
  RunFingerprint baseline = fingerprint(sd::run_scenario(config, world.get()));

  sd::ReplaySession writer(config, *world, {.subepisode_jobs = 4});
  std::vector<su::SimTime> cuts = writer.quiescent_cuts(60.0);
  ASSERT_FALSE(cuts.empty());
  writer.advance_to(cuts[cuts.size() / 2]);
  su::Writer w;
  writer.save_state(w);
  su::Bytes blob = w.take();

  for (const EngineOpt& e :
       {EngineOpt{"strand-j1", {.subepisode_jobs = 1}}, EngineOpt{"mono", {}}}) {
    sd::ReplaySession reader(config, *world, e.opt);
    su::Reader r{su::ByteView(blob)};
    ASSERT_TRUE(reader.load_state(r)) << e.name;
    reader.advance_to(reader.horizon());
    EXPECT_EQ(baseline, fingerprint(reader.finish())) << e.name;
  }
}

TEST(SoakResume, CheckpointPayloadLayoutIsPinned) {
  // A fixed two-day cell's session payload at its last quiescent cut (the
  // earlier ones carry no session traffic yet). Changing what is serialized,
  // or its order, changes this digest and needs a kCheckpointVersion bump.
  sd::ScenarioConfig config = small_config("interest", su::derive_seed(88, 4), 2.0);
  auto world = sd::record_world(config);
  sd::ReplaySession session(config, *world, {});
  std::vector<su::SimTime> cuts = session.quiescent_cuts(60.0);
  ASSERT_FALSE(cuts.empty());
  session.advance_to(cuts.back());
  ASSERT_GT(session.partial().wire_frames, 0u);
  ASSERT_GT(session.stats_totals().sessions_established, 0u);
  su::Writer w;
  session.save_state(w);
  su::Bytes blob = w.take();
  EXPECT_EQ(su::hex_encode(sc::Sha256::hash(su::ByteView(blob))),
            "9214008626cc9e154f9a4bb0df40a435e89bf76d7d175ac7032e82b91cf38e07");
}

TEST(SoakResume, MalformedPayloadNeverPartiallyAttaches) {
  sd::ScenarioConfig config = small_config("interest", su::derive_seed(77, 26), 2.0);
  auto world = sd::record_world(config);
  sd::ReplaySession donor(config, *world, {});
  std::vector<su::SimTime> cuts = donor.quiescent_cuts(60.0);
  ASSERT_FALSE(cuts.empty());
  donor.advance_to(cuts.front());
  su::Writer w;
  donor.save_state(w);
  su::Bytes blob = w.take();

  // A truncated payload must be rejected, and the rejected session must
  // still be able to run from scratch (nothing half-restored).
  su::Bytes cut_blob(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(blob.size() / 2));
  sd::ReplaySession victim(config, *world, {});
  su::Reader r{su::ByteView(cut_blob)};
  EXPECT_FALSE(victim.load_state(r));
  EXPECT_EQ(victim.sim_time(), 0.0);
  victim.advance_to(victim.horizon());
  RunFingerprint baseline = fingerprint(sd::run_scenario(config, world.get()));
  EXPECT_EQ(baseline, fingerprint(victim.finish()));

  // Well-framed payloads with out-of-range fields fail closed too: a sim
  // time that is NaN, infinite or past the horizon, a resume point that is
  // NaN or outside [0, sim time], a cursor past its timeline's end.
  const SessionPayload good = SessionPayload::parse(blob);
  ASSERT_EQ(good.nodes.size(), config.nodes);
  ASSERT_GT(good.now, 0.0);
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  std::vector<std::pair<const char*, std::function<void(SessionPayload&)>>> corruptions = {
      {"now nan", [&](SessionPayload& p) { p.now = nan; }},
      {"now inf", [&](SessionPayload& p) { p.now = inf; }},
      {"now past horizon", [&](SessionPayload& p) { p.now = donor.horizon() + 1.0; }},
      {"now negative", [&](SessionPayload& p) { p.now = -1.0; }},
      {"resume nan", [&](SessionPayload& p) { p.resume[3] = nan; }},
      {"resume inf", [&](SessionPayload& p) { p.resume[3] = inf; }},
      {"resume negative", [&](SessionPayload& p) { p.resume[3] = -1.0; }},
      {"resume past the cut", [&](SessionPayload& p) { p.resume[3] = p.now + 1.0; }},
      {"cursor past timeline", [&](SessionPayload& p) { p.cursors[5] = 1u << 20; }},
      // The table ends one byte early, so its last pool swallows the node
      // count; an empty table leaves every reference past its end.
      {"table truncated", [&](SessionPayload& p) { p.table.pop_back(); }},
      {"table emptied", [&](SessionPayload& p) { p.table = {0, 0, 0}; }},
  };
  for (const auto& [name, corrupt] : corruptions) {
    SessionPayload bad = good;
    corrupt(bad);
    su::Bytes bad_blob = bad.encode();
    sd::ReplaySession target(config, *world, {});
    su::Reader br{su::ByteView(bad_blob)};
    EXPECT_FALSE(target.load_state(br)) << name;
    EXPECT_EQ(target.sim_time(), 0.0) << name;
  }
  // The split/re-encode itself is faithful: the untouched payload loads.
  su::Bytes same = good.encode();
  EXPECT_EQ(same, blob);
  sd::ReplaySession ok_target(config, *world, {});
  su::Reader gr{su::ByteView(same)};
  EXPECT_TRUE(ok_target.load_state(gr));
}

TEST(SoakResume, PayloadPrefixesAndTrailingByteRejected) {
  sd::ScenarioConfig config = small_config("interest", su::derive_seed(77, 26), 2.0);
  auto world = sd::record_world(config);
  sd::ReplaySession donor(config, *world, {});
  std::vector<su::SimTime> cuts = donor.quiescent_cuts(60.0);
  ASSERT_FALSE(cuts.empty());
  donor.advance_to(cuts.back());
  su::Writer w;
  donor.save_state(w);
  su::Bytes blob = w.take();
  // Truncation and trailing bytes are caught before any node state is
  // touched, so one target serves every probe. Prefixes are sampled: the
  // payload is large, and each record type is swept exhaustively in
  // layout_test.
  sd::ReplaySession target(config, *world, {});
  std::size_t stride = std::max<std::size_t>(1, blob.size() / 256);
  for (std::size_t n = 0; n < blob.size(); n += (n + 64 < blob.size() ? stride : 1)) {
    su::Reader r{su::ByteView(blob.data(), n)};
    ASSERT_FALSE(target.load_state(r)) << "prefix of " << n;
  }
  su::Bytes longer = blob;
  longer.push_back(0);
  su::Reader lr{su::ByteView(longer)};
  EXPECT_FALSE(target.load_state(lr));
  EXPECT_EQ(target.sim_time(), 0.0);
  su::Reader gr{su::ByteView(blob)};
  EXPECT_TRUE(target.load_state(gr));
}

// --- soak runner ------------------------------------------------------------

TEST(SoakRunner, RunsToHorizonWithSnapshotsCheckpointsAndJsonl) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 1));
  opts.replay = {.subepisode_jobs = 2};
  opts.snapshot_interval_s = 4 * 3600.0;
  opts.checkpoint_interval_s = 8 * 3600.0;
  opts.checkpoint_dir = temp_dir("soak-run-ckpts");
  opts.jsonl_path = temp_dir("soak-run-log") + "/soak.jsonl";
  auto world = sd::record_world(opts.config);
  sk::SoakResult result = sk::Runner(opts).run(*world);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stop_reason, "horizon");
  EXPECT_GT(result.snapshots.size(), 2u);
  EXPECT_GE(result.checkpoints_written, 1u);
  EXPECT_TRUE(result.anomalies.empty());
  // The run's metrics equal the plain replay's.
  EXPECT_EQ(fingerprint(sd::run_scenario(opts.config, world.get())),
            fingerprint(result.scenario));

  std::ifstream log(opts.jsonl_path);
  ASSERT_TRUE(log.good());
  std::string line;
  std::size_t snapshot_lines = 0;
  bool saw_result = false;
  while (std::getline(log, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"kind\":\"snapshot\"") != std::string::npos) ++snapshot_lines;
    if (line.find("\"kind\":\"result\"") != std::string::npos) saw_result = true;
  }
  EXPECT_EQ(snapshot_lines, result.snapshots.size());
  EXPECT_TRUE(saw_result);
}

TEST(SoakRunner, ResumeFromStoredCheckpointMatchesUninterrupted) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 2));
  opts.replay = {.subepisode_jobs = 2};
  opts.snapshot_interval_s = 4 * 3600.0;
  opts.checkpoint_interval_s = 6 * 3600.0;
  opts.checkpoint_dir = temp_dir("soak-resume-ckpts");
  auto world = sd::record_world(opts.config);

  sk::SoakResult full = sk::Runner(opts).run(*world);
  ASSERT_TRUE(full.completed);
  ASSERT_GE(full.checkpoints_written, 1u);

  std::string error;
  auto ckpt = sk::CheckpointStore(opts.checkpoint_dir).load_latest(&error);
  ASSERT_TRUE(ckpt.has_value()) << error;
  sk::SoakResult resumed = sk::Runner(opts).resume(*world, *ckpt);
  EXPECT_TRUE(resumed.completed) << resumed.stop_reason;
  EXPECT_EQ(fingerprint(full.scenario), fingerprint(resumed.scenario));
}

TEST(SoakRunner, ResumeRejectsForeignWorldCheckpoint) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 3));
  auto world = sd::record_world(opts.config);
  sk::Checkpoint foreign;
  foreign.world_digest.fill(0xAB);
  foreign.payload = su::to_bytes("whatever");
  sk::SoakResult result = sk::Runner(opts).resume(*world, foreign);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason.rfind("resume-rejected", 0), 0u) << result.stop_reason;
  EXPECT_TRUE(result.snapshots.empty());
}

TEST(SoakRunner, ResumeRejectsCheckpointFromAnotherFaultPlan) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 3));
  auto world = sd::record_world(opts.config);
  sd::ScenarioConfig faulted = opts.config;
  faulted.faults.link.loss_p = 0.3;
  sk::Checkpoint ckpt;
  ckpt.world_digest = sk::world_digest(faulted, *world);
  sd::ReplaySession session(faulted, *world, {});
  su::Writer w;
  session.save_state(w);
  ckpt.payload = w.take();
  sk::SoakResult result = sk::Runner(opts).resume(*world, ckpt);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason.rfind("resume-rejected", 0), 0u) << result.stop_reason;
}

TEST(SoakRunner, MetricPredicateHaltsBeforeHorizon) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 4));
  opts.config.days = 2.0;  // posts land in day 1's evening, well before the horizon
  opts.snapshot_interval_s = 2 * 3600.0;
  opts.stop.predicates.push_back({"posts", ">=", 1.0});
  auto world = sd::record_world(opts.config);
  sk::SoakResult result = sk::Runner(opts).run(*world);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason.rfind("predicate", 0), 0u) << result.stop_reason;
  EXPECT_LT(result.sim_time, su::days(opts.config.days));
}

TEST(SoakRunner, UnevaluablePredicateRejectedBeforeReplay) {
  sk::SoakOptions opts;
  opts.config = small_config("interest", su::derive_seed(88, 4));
  auto world = sd::record_world(opts.config);
  for (const sk::StopPredicate& p : {sk::StopPredicate{"no_such_metric", ">=", 0},
                                     sk::StopPredicate{"posts", "==", 0}}) {
    opts.stop.predicates = {p};
    sk::SoakResult result = sk::Runner(opts).run(*world);
    EXPECT_EQ(result.stop_reason.rfind("predicate-rejected", 0), 0u) << result.stop_reason;
    EXPECT_TRUE(result.snapshots.empty()) << p.metric;
  }
}

TEST(SoakRunner, StopParserAcceptsOnlySnapshotKeysAndFiniteBounds) {
  auto p = sk::parse_stop("bundle_sig_rejected<=5");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->metric, "bundle_sig_rejected");
  EXPECT_EQ(p->op, "<=");
  EXPECT_EQ(p->value, 5.0);
  EXPECT_EQ(sk::parse_stop("sim_days>=1.5")->value, 1.5);
  std::string error;
  EXPECT_FALSE(sk::parse_stop("no_such_metric>=0", &error).has_value());
  EXPECT_NE(error.find("'no_such_metric'"), std::string::npos) << error;
  for (const char* bad : {"posts==3", "posts>3", "posts", ">=3", "posts>=", "posts>=abc",
                          "posts>=1x", "posts>=nan", "posts>=inf", "kind>=0"}) {
    error.clear();
    EXPECT_FALSE(sk::parse_stop(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(SoakRunner, SnapshotKeysAreUniqueAndEachResolvesToItsLoggedValue) {
  // Distinct values everywhere, so a key resolving to the wrong field shows.
  sk::MetricSnapshot snap;
  snap.sim_time = 1.25 * 86400.0;
  snap.deliveries = 12;  // the oracle's count
  std::uint64_t next = 1000;
  sm::for_each_stat([&](const char*, std::uint64_t& v) { v = next++; }, snap.totals);
  sd::for_each_net_counter([&](const char*, std::uint64_t& v) { v = next++; }, snap);

  const std::string record = sk::snapshot_record(snap).render();
  std::set<std::string> keys;
  std::stringstream fields(record.substr(1, record.size() - 2));
  for (std::string field; std::getline(fields, field, ',');) {
    const std::size_t colon = field.find(':');
    const std::string key = field.substr(1, colon - 2);
    EXPECT_TRUE(keys.insert(key).second) << "duplicate key " << key;
    if (key == "kind") continue;
    EXPECT_EQ(sk::snapshot_metric(snap, key), std::stod(field.substr(colon + 1))) << key;
  }
  // Every counter is logged under its own name but one: `deliveries` keeps
  // the oracle's meaning. A second shared name would land in `shadowed`.
  std::set<std::string> shadowed;
  auto check = [&](const char* name, std::uint64_t v) {
    if (!keys.count(name) || sk::snapshot_metric(snap, name) != static_cast<double>(v)) {
      shadowed.insert(name);
    }
  };
  sm::for_each_stat(check, snap.totals);
  sd::for_each_net_counter(check, snap);
  EXPECT_EQ(shadowed, std::set<std::string>{"deliveries"});
}

// --- anomaly detector -------------------------------------------------------

namespace {

sk::MetricSnapshot snap_at(double sim_time, std::uint64_t bundles_sent,
                           std::uint64_t wire_frames, std::uint64_t rss_kb) {
  sk::MetricSnapshot s;
  s.sim_time = sim_time;
  s.totals.bundles_sent = bundles_sent;
  s.totals.deliveries = bundles_sent;               // moves with bundles
  s.totals.sessions_established = bundles_sent / 4 + 1;
  s.totals.frames_sent = wire_frames;
  s.wire_frames = wire_frames;
  s.rss_kb = rss_kb;
  return s;
}

}  // namespace

TEST(AnomalyDetector, RateSpikeFlaggedAgainstRollingMean) {
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.rate_spike_min = 100;
  sk::AnomalyDetector det(cfg);
  std::uint64_t sent = 0, frames = 0;
  for (int i = 0; i < 6; ++i) {
    sent += 10;
    frames += 40;
    EXPECT_TRUE(det.observe(snap_at(i * 3600.0, sent, frames, 0)).empty()) << i;
  }
  sent += 100000;  // 10000x the rolling mean
  frames += 40;
  auto found = det.observe(snap_at(7 * 3600.0, sent, frames, 0));
  // Correlated counters (sessions move with bundles in snap_at) may spike
  // together; the bundles_sent spike itself must be among the findings.
  bool spiked = false;
  for (const sk::Anomaly& a : found) {
    if (a.kind == "rate-spike" && a.metric == "bundles_sent") {
      spiked = true;
      EXPECT_NE(a.detail.find("rolling-window peak"), std::string::npos);
    }
  }
  EXPECT_TRUE(spiked);
}

TEST(AnomalyDetector, UnequalIntervalLengthsAreNotRateSpikes) {
  // Snapshots land on quiescent cuts, so interval lengths legitimately vary
  // severalfold. Regression for the first 30-day soak: constant per-hour
  // traffic observed over a mix of 6 h and 24 h intervals tripped the raw
  // per-interval-delta comparison (a 24 h interval carries 4x the count of a
  // 6 h one); the detector must compare per-sim-hour rates instead.
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.rate_spike_min = 100;
  sk::AnomalyDetector det(cfg);
  const double kRatePerHour = 500.0;
  const double lengths_h[] = {6, 6, 6, 6, 6, 6, 24, 6, 24, 6, 24};
  double t = 0;
  std::uint64_t sent = 0, frames = 0;
  for (double len : lengths_h) {
    t += len * 3600.0;
    sent += static_cast<std::uint64_t>(kRatePerHour * len);
    frames += static_cast<std::uint64_t>(kRatePerHour * len) + 40;
    for (const sk::Anomaly& a : det.observe(snap_at(t, sent, frames, 0))) {
      EXPECT_NE(a.kind, "rate-spike") << a.detail;
    }
  }

  // The same detector still catches a genuine rate jump on a long interval:
  // 24 h at 10x the steady per-hour rate.
  t += 24 * 3600.0;
  sent += static_cast<std::uint64_t>(kRatePerHour * 10 * 24);
  frames += static_cast<std::uint64_t>(kRatePerHour * 10 * 24);
  bool spiked = false;
  for (const sk::Anomaly& a : det.observe(snap_at(t, sent, frames, 0))) {
    if (a.kind == "rate-spike" && a.metric == "bundles_sent") spiked = true;
  }
  EXPECT_TRUE(spiked);
}

TEST(AnomalyDetector, DutyCycledTrafficIsNotARateSpike) {
  // Regression for the second 30-day soak halt: weekday-only bridge
  // commuting pauses cross-community traffic over the weekend, and Monday
  // flushes the backlog — 751/h against a weekend-lulled rolling MEAN of
  // 85/h read as an 8.8x spike. The baseline must be the window's peak
  // rate, which the weekly rhythm never exceeds by the spike factor.
  sk::AnomalyConfig cfg;
  cfg.window = 6;
  cfg.rate_spike_min = 100;
  sk::AnomalyDetector det(cfg);
  double t = 0;
  std::uint64_t sent = 0, frames = 0;
  auto interval = [&](double len_h, double rate_per_h) {
    t += len_h * 3600.0;
    auto d = static_cast<std::uint64_t>(rate_per_h * len_h);
    sent += d;
    frames += d + 40;
    return det.observe(snap_at(t, sent, frames, 0));
  };
  // Two weeks: five 12 h busy weekday intervals at ~700/h, then a weekend
  // of near-silence, then Monday's backlog burst at 800/h.
  for (int week = 0; week < 2; ++week) {
    for (int d = 0; d < 5; ++d) {
      for (const sk::Anomaly& a : interval(12, 700)) {
        EXPECT_NE(a.kind, "rate-spike") << a.detail;
      }
    }
    for (int d = 0; d < 4; ++d) {
      for (const sk::Anomaly& a : interval(12, 2)) {
        EXPECT_NE(a.kind, "rate-spike") << a.detail;
      }
    }
    for (const sk::Anomaly& a : interval(12, 800)) {
      EXPECT_NE(a.kind, "rate-spike") << a.detail;
    }
  }
  // A genuine feedback loop still trips: 10x the recent peak.
  bool spiked = false;
  for (const sk::Anomaly& a : interval(12, 8000)) {
    if (a.kind == "rate-spike" && a.metric == "bundles_sent") spiked = true;
  }
  EXPECT_TRUE(spiked);
}

TEST(AnomalyDetector, StallFlaggedOnlyWhileTrafficFlows) {
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.stall_intervals = 3;
  sk::AnomalyDetector det(cfg);
  std::uint64_t frames = 0;
  // Counters frozen but frames flowing: a stall after 3 such intervals.
  bool stalled = false;
  for (int i = 0; i < 6 && !stalled; ++i) {
    frames += 50;
    for (const sk::Anomaly& a : det.observe(snap_at(i * 3600.0, 5, frames, 0))) {
      if (a.kind == "stall") stalled = true;
    }
  }
  EXPECT_TRUE(stalled);

  // Frozen counters with no traffic are a quiet trace, not a stall.
  sk::AnomalyDetector quiet(cfg);
  for (int i = 0; i < 10; ++i) {
    for (const sk::Anomaly& a : quiet.observe(snap_at(i * 3600.0, 5, 100, 0))) {
      EXPECT_NE(a.kind, "stall") << a.detail;
    }
  }
}

TEST(AnomalyDetector, RssGrowthFlaggedAgainstWindowMinimum) {
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.rss_growth_factor = 1.5;
  cfg.rss_growth_min_kb = 1000;
  sk::AnomalyDetector det(cfg);
  std::uint64_t sent = 0, frames = 0;
  for (int i = 0; i < 6; ++i) {
    sent += 10;
    frames += 40;
    EXPECT_TRUE(det.observe(snap_at(i * 3600.0, sent, frames, 10000)).empty()) << i;
  }
  sent += 10;
  frames += 40;
  auto found = det.observe(snap_at(7 * 3600.0, sent, frames, 25000));
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found.front().kind, "rss-growth");
  EXPECT_EQ(found.front().metric, "rss_kb");
}

// A month-scale soak's bundle stores legitimately fill toward capacity for
// weeks (59k resident copies by day 12 in the first month run), so raw RSS
// grows linearly far past any window-min factor. Growth explained by resident
// state is healthy; only RSS outpacing the stored bundles (KiB/bundle
// climbing) is a leak.
TEST(AnomalyDetector, StoreFillRssGrowthIsNotALeak) {
  sk::AnomalyConfig cfg;
  cfg.window = 4;
  cfg.rss_growth_min_kb = 1000;
  sk::AnomalyDetector det(cfg);
  std::uint64_t sent = 0, frames = 0, stored = 100;
  double t = 0;
  // Linear fill: +2000 bundles per interval at a flat ~1.3 KiB each on top of
  // 5 MiB of fixed overhead. Raw RSS ends 6.6x the window minimum.
  for (int i = 0; i < 20; ++i) {
    t += 6 * 3600.0;
    sent += 500;
    frames += 2000;
    stored += 2000;
    sk::MetricSnapshot s = snap_at(t, sent, frames, 5000 + (stored * 13) / 10);
    s.store_bundles = stored;
    for (const sk::Anomaly& a : det.observe(s)) {
      EXPECT_NE(a.kind, "rss-growth") << a.detail;
    }
  }
  // Now a genuine leak: stores hold flat while RSS keeps climbing.
  std::uint64_t rss = 5000 + (stored * 13) / 10;
  std::vector<sk::Anomaly> found;
  for (int i = 0; i < 12 && found.empty(); ++i) {
    t += 6 * 3600.0;
    sent += 500;
    frames += 2000;
    rss += 20000;
    sk::MetricSnapshot s = snap_at(t, sent, frames, rss);
    s.store_bundles = stored;
    for (const sk::Anomaly& a : det.observe(s)) {
      if (a.kind == "rss-growth") found.push_back(a);
    }
  }
  ASSERT_FALSE(found.empty());
  EXPECT_NE(found.front().detail.find("KiB per resident bundle"), std::string::npos)
      << found.front().detail;
}

TEST(Jsonl, EscapesAndRendersFlatObjects) {
  sk::JsonObject o;
  o.str("name", "line\nbreak \"quoted\"").count("n", 42).num("x", 1.5).boolean("ok", true);
  EXPECT_EQ(o.render(),
            "{\"name\":\"line\\nbreak \\\"quoted\\\"\",\"n\":42,\"x\":1.5,\"ok\":true}");

  std::string path = temp_dir("jsonl") + "/log.jsonl";
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  {
    sk::JsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.write(o);
    writer.write(o);
  }
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line, o.render());
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

// --- time-scale regression tests from the soak audit ------------------------

TEST(SoakResumeCache, TicketsReMintOnlyOnFullHandshake) {
  // Five daily contacts with a 24 h resumption-ticket lifetime. The ticket
  // minted by a full handshake at contact k is still (just) valid at
  // contact k+1 but expired by k+2 — resumption does not refresh the
  // ticket, so the cadence is full, resume, full, resume, full. A re-mint
  // on resume would show 1 full handshake; a re-mint too rarely, 5.
  ss::Scheduler sched;
  ss::MpcNetwork net(sched, 2);
  sp::BootstrapService infra(su::to_bytes("soak-ca"));
  sc::Drbg rng_a(su::to_bytes("dev-a"));
  sc::Drbg rng_b(su::to_bytes("dev-b"));
  auto creds_a = infra.signup("alice", rng_a, 0.0);
  auto creds_b = infra.signup("bob", rng_b, 0.0);
  ASSERT_TRUE(creds_a && creds_b);
  sm::SosConfig cfg;
  cfg.scheme = "epidemic";
  cfg.resume_lifetime_s = 86400.0;
  sm::SosNode alice(sched, net.endpoint(0), std::move(*creds_a), cfg);
  sm::SosNode bob(sched, net.endpoint(1), std::move(*creds_b), cfg);
  bob.follow(alice.user_id());
  alice.start();
  bob.start();

  ss::ContactTrace trace;
  for (int k = 0; k < 5; ++k) {
    double t0 = static_cast<double>(k) * 86400.0 + 3600.0;
    ASSERT_TRUE(trace.add({t0, t0 + 600.0, 0, 1}));
    // Fresh content before each contact so the peers always connect.
    sched.schedule_at(t0 - 300.0, [&alice, k] {
      alice.publish(su::to_bytes("post " + std::to_string(k)));
    });
  }
  ss::TracePlayer player(sched, trace);
  player.on_contact_start = [&](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(static_cast<ss::PeerId>(a), static_cast<ss::PeerId>(b), true);
  };
  player.on_contact_end = [&](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(static_cast<ss::PeerId>(a), static_cast<ss::PeerId>(b), false);
  };
  player.start();
  sched.run_until(5 * 86400.0);

  EXPECT_EQ(bob.stats().sessions_established, 5u);
  EXPECT_EQ(bob.stats().full_handshakes, 3u);
  EXPECT_EQ(bob.stats().sessions_resumed, 2u);
  EXPECT_EQ(alice.stats().full_handshakes, 3u);
  EXPECT_EQ(alice.stats().sessions_resumed, 2u);
  EXPECT_GT(bob.stats().deliveries, 0u);
}

TEST(SoakProphet, MonthScaleAgingPrunesInsteadOfDenormalizing) {
  sm::ProphetScheme scheme;
  sp::UserId self{}, peer_a{}, peer_b{};
  self.bytes[0] = 1;
  peer_a.bytes[0] = 2;
  peer_b.bytes[0] = 3;
  std::set<sp::UserId> subs;
  sos::bundle::BundleStore store(16);

  sm::RoutingContext t0(self, subs, store, 0.0);
  scheme.on_encounter(t0, peer_a);
  EXPECT_GT(scheme.predictability(peer_a), 0.7);
  EXPECT_EQ(scheme.table_size(), 1u);

  // A month later gamma^(30 d / 30 min) ~= 5e-13: far below the pruning
  // floor. The entry must be gone, not a denormal costing summary bytes.
  sm::RoutingContext month(self, subs, store, 30.0 * 86400.0);
  scheme.on_encounter(month, peer_b);
  EXPECT_EQ(scheme.table_size(), 1u);
  EXPECT_EQ(scheme.predictability(peer_a), 0.0);
  double pb = scheme.predictability(peer_b);
  EXPECT_GT(pb, 0.7);
  EXPECT_EQ(std::fpclassify(pb), FP_NORMAL);
}

TEST(SoakProphet, TransitiveCandidatesBelowFloorNeverInserted) {
  // The transitive update used to create permanent near-zero entries for
  // every destination any peer had ever heard of. With the floor, a
  // candidate below it must not enter the table at all.
  sm::ProphetParams tiny_beta;
  tiny_beta.beta = 1e-10;  // transitive candidate ~5.6e-11 < p_floor
  sm::ProphetScheme scheme(tiny_beta);
  sm::ProphetScheme carrier;
  sp::UserId self{}, carrier_id{}, dest{};
  self.bytes[0] = 1;
  carrier_id.bytes[0] = 2;
  dest.bytes[0] = 3;
  std::set<sp::UserId> subs;
  sos::bundle::BundleStore store(16);
  sm::RoutingContext ctx(self, subs, store, 100.0);

  carrier.on_encounter(ctx, dest);  // carrier can reach dest (P ~0.75)
  scheme.on_peer_blob(carrier_id, su::ByteView(carrier.summary_blob(ctx)));
  scheme.on_encounter(ctx, carrier_id);

  EXPECT_EQ(scheme.table_size(), 1u);  // the carrier only, never dest
  EXPECT_GT(scheme.predictability(carrier_id), 0.7);
  EXPECT_EQ(scheme.predictability(dest), 0.0);
}

TEST(SoakTrust, CrlSizeReportsTheBoundedRevocationSet) {
  sp::TrustStore trust;
  EXPECT_EQ(trust.crl_size(), 0u);
  trust.add_revoked(7);
  trust.add_revoked(7);  // set semantics: no double counting
  EXPECT_EQ(trust.crl_size(), 1u);
  trust.update_crl({1, 2, 3});
  EXPECT_EQ(trust.crl_size(), 3u);
}

namespace {

/// Mobility probe: two far-apart stationary nodes; records every sample
/// time the encounter detector queries.
class ProbeMobility : public ss::MobilityModel {
 public:
  std::size_t node_count() const override { return 2; }
  ss::Vec2 position(std::size_t node, su::SimTime t) const override {
    times.insert(t);
    return node == 0 ? ss::Vec2{0, 0} : ss::Vec2{100000, 0};
  }
  mutable std::set<double> times;
};

}  // namespace

TEST(SoakDetector, TickTimesStayOnTheStartAnchoredGrid) {
  // The k-th tick must land at exactly start + k*tick (one multiplication),
  // not at an accumulated sum of ticks — over a month of 0.1 s ticks the
  // accumulated float error silently shifts every contact edge.
  ss::Scheduler sched;
  ProbeMobility mobility;
  ss::EncounterDetector detector(sched, mobility, 50.0, 0.1);
  const double start = 1000.5;
  const double until = start + 500.0;
  sched.schedule_at(start, [&] { detector.start(until); });
  sched.run_until(until + 10.0);

  ASSERT_GT(mobility.times.size(), 4000u);
  std::size_t k = 0;
  for (double t : mobility.times) {
    ASSERT_EQ(t, start + static_cast<double>(k) * 0.1) << "tick " << k;
    ++k;
  }
  EXPECT_LE(*mobility.times.rbegin(), until);
}

TEST(SoakDetector, RecordedTraceReplaysToTheIdenticalTrace) {
  // Long-horizon live-vs-recorded equivalence: replaying a recorded trace
  // through TracePlayer into a TraceRecorder reproduces the trace exactly
  // (same intervals, same edge times, same order).
  sd::ScenarioConfig config = small_config("interest", su::derive_seed(99, 1));
  config.nodes = 8;
  auto world = sd::record_world(config);
  ASSERT_GT(world->trace.size(), 0u);

  ss::Scheduler sched;
  ss::TraceRecorder recorder(sched);
  ss::TracePlayer player(sched, world->trace);
  player.on_contact_start = [&](std::uint32_t a, std::uint32_t b) {
    recorder.contact_start(a, b);
  };
  player.on_contact_end = [&](std::uint32_t a, std::uint32_t b) {
    recorder.contact_end(a, b);
  };
  player.start();
  sched.run_until(su::days(config.days) + 1.0);
  ss::ContactTrace again = recorder.finish();

  ASSERT_EQ(again.size(), world->trace.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    const ss::ContactInterval& x = world->trace.contacts()[i];
    const ss::ContactInterval& y = again.contacts()[i];
    EXPECT_EQ(x.start, y.start) << i;
    EXPECT_EQ(x.end, y.end) << i;
    EXPECT_EQ(x.a, y.a) << i;
    EXPECT_EQ(x.b, y.b) << i;
  }
}
