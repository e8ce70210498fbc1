// Contact-trace tests: recorder/player symmetry, a full middleware run
// driven by a replayed trace instead of live mobility, and the recorded-world
// digests.
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "deploy/scenario.hpp"
#include "mw/sos_node.hpp"
#include "pki/bootstrap.hpp"
#include "sim/multipeer.hpp"
#include "sim/radio.hpp"
#include "sim/trace.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace sc = sos::crypto;
namespace sd = sos::deploy;
namespace sm = sos::mw;
namespace sp = sos::pki;
namespace ss = sos::sim;
namespace su = sos::util;

TEST(ContactTrace, AddNormalizesAndValidates) {
  ss::ContactTrace t;
  EXPECT_TRUE(t.add({10, 20, 5, 2}));
  EXPECT_FALSE(t.add({10, 20, 3, 3}));  // self contact
  EXPECT_FALSE(t.add({20, 10, 0, 1}));  // end < start
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.contacts()[0].a, 2u);  // normalized a < b
  EXPECT_EQ(t.contacts()[0].b, 5u);
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_DOUBLE_EQ(t.duration(), 20.0);
}

TEST(TraceRecorder, RecordsDetectorEvents) {
  // Record a synthetic mobility run, then check the trace matches what the
  // detector reported.
  su::Rng rng(5);
  auto m = ss::random_waypoint(15, 3000, {}, rng);
  ss::Scheduler sched;
  ss::EncounterDetector det(sched, *m, 300.0, 25.0);
  ss::TraceRecorder recorder(sched);
  int starts = 0, ends = 0;
  det.on_contact_start = [&](std::size_t a, std::size_t b) {
    ++starts;
    recorder.contact_start((std::uint32_t)a, (std::uint32_t)b);
  };
  det.on_contact_end = [&](std::size_t a, std::size_t b) {
    ++ends;
    recorder.contact_end((std::uint32_t)a, (std::uint32_t)b);
  };
  det.start(2000);
  sched.run_until(2000);
  auto trace = recorder.finish();
  EXPECT_EQ(trace.size(), static_cast<std::size_t>(starts));
  EXPECT_GT(starts, 0);
  for (const auto& c : trace.contacts()) {
    EXPECT_LT(c.a, c.b);
    EXPECT_LE(c.end, 2000.0);
    EXPECT_GE(c.end, c.start);
  }
}

TEST(TracePlayer, ReplaysAtExactTimes) {
  ss::ContactTrace t;
  t.add({100, 200, 0, 1});
  t.add({150, 300, 1, 2});
  ss::Scheduler sched;
  ss::TracePlayer player(sched, t);
  std::vector<std::pair<double, std::string>> events;
  player.on_contact_start = [&](std::uint32_t a, std::uint32_t b) {
    events.emplace_back(sched.now(), "start " + std::to_string(a) + "-" + std::to_string(b));
  };
  player.on_contact_end = [&](std::uint32_t a, std::uint32_t b) {
    events.emplace_back(sched.now(), "end " + std::to_string(a) + "-" + std::to_string(b));
  };
  player.start();
  sched.run_all();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events[0].first, 100.0);
  EXPECT_EQ(events[0].second, "start 0-1");
  EXPECT_DOUBLE_EQ(events[1].first, 150.0);
  EXPECT_DOUBLE_EQ(events[2].first, 200.0);
  EXPECT_EQ(events[2].second, "end 0-1");
  EXPECT_DOUBLE_EQ(events[3].first, 300.0);
}

TEST(TracePlayer, DestroyedPlayerCancelsPendingEvents) {
  // The scheduled callbacks capture `this`; a player destroyed mid-run must
  // cancel them or the scheduler would later invoke a dangling pointer.
  ss::Scheduler sched;
  int events = 0;
  {
    ss::ContactTrace t;
    t.add({100, 200, 0, 1});
    t.add({150, 300, 1, 2});
    ss::TracePlayer player(sched, t);
    player.on_contact_start = [&](std::uint32_t, std::uint32_t) { ++events; };
    player.on_contact_end = [&](std::uint32_t, std::uint32_t) { ++events; };
    player.start();
    sched.run_until(120);  // first start fires...
    EXPECT_EQ(events, 1);
  }  // ...then the player dies with three events still queued
  sched.run_all();
  EXPECT_EQ(events, 1);  // none of the dangling callbacks ran
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
}

TEST(TracePlayer, StopThenRestartReplaysAgain) {
  ss::ContactTrace t;
  t.add({10, 20, 0, 1});
  ss::Scheduler sched;
  ss::TracePlayer player(sched, t);
  int events = 0;
  player.on_contact_start = [&](std::uint32_t, std::uint32_t) { ++events; };
  player.start();
  player.stop();
  sched.run_all();
  EXPECT_EQ(events, 0);
  player.start();  // past timestamps clamp to now and still fire
  sched.run_all();
  EXPECT_EQ(events, 1);
}

TEST(TracePlayer, DrivesFullMiddlewareStack) {
  // Replay a hand-written deployment trace through the real stack: Alice
  // meets Bob at t=100..200, Bob meets Carol at t=500..600; Carol receives
  // Alice's post via Bob with trace-determined timing.
  ss::ContactTrace trace;
  trace.add({100, 200, 0, 1});
  trace.add({500, 600, 1, 2});

  ss::Scheduler sched;
  ss::MpcNetwork net(sched, 3);
  sp::BootstrapService infra(su::to_bytes("trace-bed"));
  std::vector<std::unique_ptr<sm::SosNode>> nodes;
  for (int i = 0; i < 3; ++i) {
    sc::Drbg device(su::to_bytes("trace-dev-" + std::to_string(i)));
    sm::SosConfig config;
    config.scheme = "epidemic";
    config.maintenance_interval_s = 0;
    nodes.push_back(std::make_unique<sm::SosNode>(
        sched, net.endpoint((ss::PeerId)i),
        *infra.signup("trace-user" + std::to_string(i), device, 0), config));
  }
  nodes[2]->follow(nodes[0]->user_id());
  double delivered_at = -1;
  nodes[2]->on_data = [&](const sos::bundle::Bundle& b, const sp::Certificate&) {
    delivered_at = sched.now();
    EXPECT_EQ(b.hop_count, 2);
  };
  for (auto& n : nodes) n->start();

  ss::TracePlayer player(sched, trace);
  player.on_contact_start = [&](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(a, b, true);
  };
  player.on_contact_end = [&](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(a, b, false);
  };
  player.start();

  sched.schedule_at(50, [&] { nodes[0]->publish(su::to_bytes("trace-driven post")); });
  sched.run_all();

  // Delivery must happen during the second contact window.
  EXPECT_GE(delivered_at, 500.0);
  EXPECT_LE(delivered_at, 600.0);
}

// --- recorded-world goldens -------------------------------------------------
// SHA-256 of the binary encoding of record_world(config)->trace for three
// worlds: the Gainesville reconstruction, the 48n-4c community cell and a
// dense 100-node cell. The encounter detector, the scheduler under it and
// the mobility generators may be rewritten for speed, but not by a single
// contact or timestamp: every replay metric downstream hangs off these
// traces.

namespace {

// The pinned digests hash the trace's exact binary encoding: every
// contact's start/end as IEEE-754 bits plus both node ids, in trace order.
std::string world_digest(const sd::ScenarioConfig& config) {
  return su::hex_encode(sc::Sha256::hash(su::encode(sd::record_world(config)->trace.contacts())));
}

}  // namespace

TEST(RecordedWorld, GainesvilleDigestIsPinned) {
  EXPECT_EQ(world_digest(sd::gainesville_config("interest", 42)),
            "3f752cc63087868689c68ee894fc258acf6e7b8239fc1b7ccf0e19d3a153b7b3");
}

TEST(RecordedWorld, CommunityCellDigestIsPinned) {
  sd::ScenarioConfig c = sd::gainesville_config("interest");
  c.nodes = 48;
  c.area_w_m = 6000;
  c.area_h_m = 6000;
  c.days = 28.0;
  c.communities = 4;
  c.bridge_node_frac = 0.10;
  c.mobility.home_min_separation_m = 150.0;
  EXPECT_EQ(world_digest(c), "cbe4c3b6a5b8bcb75e0dcb596434452c32c0f8c926767a6dd86de9cec7a9955d");
}

TEST(RecordedWorld, DenseCellDigestIsPinned) {
  sd::ScenarioConfig c = sd::gainesville_config("interest");
  c.nodes = 100;
  c.area_w_m = 2000;
  c.area_h_m = 2000;
  c.days = 2.0;
  EXPECT_EQ(world_digest(c), "d15cfff5062e1666fd6c2a91d57de1061adf7c286f10d02f1c89ce9b31c8291a");
}
