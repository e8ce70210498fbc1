// Simulator substrate tests: event scheduler semantics, mobility model
// invariants (bounds, determinism, sleep behaviour), encounter detection
// (grid vs brute force), and the MultipeerSim state machine including
// bandwidth-limited delivery and mid-transfer loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "sim/mobility.hpp"
#include "sim/multipeer.hpp"
#include "sim/radio.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace ss = sos::sim;
namespace su = sos::util;

// --- Scheduler -----------------------------------------------------------

TEST(Scheduler, RunsInTimeOrder) {
  ss::Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
}

TEST(Scheduler, FifoAmongEqualTimestamps) {
  ss::Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleInIsRelative) {
  ss::Scheduler sched;
  double fired_at = -1;
  sched.schedule_at(5.0, [&] {
    sched.schedule_in(2.5, [&] { fired_at = sched.now(); });
  });
  sched.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Scheduler, CancelPreventsExecution) {
  ss::Scheduler sched;
  bool fired = false;
  auto id = sched.schedule_at(1.0, [&] { fired = true; });
  sched.cancel(id);
  sched.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, InvalidEventIdIsNeverMintedAndCancelsAsNoOp) {
  // kInvalidEventId is the "no event armed" sentinel the middleware's
  // maybe-scheduled fields (routing push/maintenance) init to and reset to
  // on disarm. The scheduler must never mint it — ids
  // start above the sentinel — and cancelling it must be a harmless no-op
  // that leaves no bookkeeping behind.
  ss::Scheduler sched;
  bool fired = false;
  auto id = sched.schedule_at(1.0, [&] { fired = true; });
  EXPECT_NE(id, ss::kInvalidEventId);
  sched.cancel(ss::kInvalidEventId);
  EXPECT_EQ(sched.cancelled_backlog(), 0u);  // no-op left no tombstone
  sched.run_all();
  EXPECT_TRUE(fired);  // the live event was untouched
  // Fresh schedulers (episode shards construct one per episode) also never
  // hand out the sentinel as their first id.
  ss::Scheduler shard(100.0);
  EXPECT_NE(shard.schedule_in(1.0, [] {}), ss::kInvalidEventId);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  ss::Scheduler sched;
  int count = 0;
  sched.schedule_at(1.0, [&] { ++count; });
  sched.schedule_at(2.0, [&] { ++count; });
  sched.schedule_at(5.0, [&] { ++count; });
  sched.run_until(3.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
  sched.run_all();
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, PastEventsClampToNow) {
  ss::Scheduler sched;
  sched.schedule_at(10.0, [] {});
  sched.run_all();
  double fired_at = -1;
  sched.schedule_at(1.0, [&] { fired_at = sched.now(); });  // in the past
  sched.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Scheduler, EventsScheduledDuringRunUntilSameWindowExecute) {
  ss::Scheduler sched;
  bool inner = false;
  sched.schedule_at(1.0, [&] {
    sched.schedule_in(0.5, [&] { inner = true; });
  });
  sched.run_until(2.0);
  EXPECT_TRUE(inner);
}

TEST(Scheduler, FifoTiesSurviveCancelsAndSlotReuse) {
  // Slots freed by fired or cancelled events are reused, but ties still run
  // in schedule order, never in slot order.
  ss::Scheduler sched;
  std::vector<int> order;
  std::vector<ss::EventId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(sched.schedule_at(1.0, [&order, i] { order.push_back(i); }));
  sched.cancel(ids[1]);
  sched.cancel(ids[4]);
  sched.schedule_at(0.5, [&] {
    // Runs first and refills the queue at the tied timestamp.
    for (int i = 6; i < 9; ++i) sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
  });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5, 6, 7, 8}));
}

TEST(Scheduler, CancelFromInsideARunningEvent) {
  ss::Scheduler sched;
  int later_fired = 0;
  ss::EventId later = sched.schedule_at(2.0, [&] { ++later_fired; });
  ss::EventId self = ss::kInvalidEventId;
  self = sched.schedule_at(1.0, [&] {
    sched.cancel(later);
    EXPECT_EQ(sched.cancelled_backlog(), 1u);
    sched.cancel(self);  // already popped: a no-op
    EXPECT_EQ(sched.cancelled_backlog(), 1u);
  });
  sched.run_all();
  EXPECT_EQ(later_fired, 0);
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Scheduler, CancelOfAReusedSlotsOldIdIsStale) {
  ss::Scheduler sched;
  ss::EventId old_id = sched.schedule_at(1.0, [] {});
  sched.run_all();
  bool fired = false;
  ss::EventId new_id = sched.schedule_at(2.0, [&] { fired = true; });  // same slot
  EXPECT_NE(new_id, old_id);
  EXPECT_NE(new_id, ss::kInvalidEventId);
  sched.cancel(old_id);
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
  sched.run_all();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CallableIsMovedNeverCopied) {
  // A frame delivery captures its payload; the queue must move it from
  // schedule to execution, whichever entry point pops it.
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&&) noexcept = default;
  };
  int copies = 0;
  int ran = 0;
  ss::Scheduler sched;
  for (int i = 0; i < 50; ++i) {
    sched.schedule_at(static_cast<double>((i * 7) % 13),
                      [c = CopyCounter(&copies), &ran] { ++ran; });
  }
  ss::EventId dropped = sched.schedule_at(3.0, [c = CopyCounter(&copies)] {});
  sched.cancel(dropped);
  sched.step();
  sched.run_until(6.0);
  sched.run_all();
  EXPECT_EQ(ran, 50);
  EXPECT_EQ(copies, 0);
}

TEST(Scheduler, RandomizedScheduleAndCancelMatchesReferenceOrder) {
  // Against a brute-force model — events kept in schedule order, the next
  // one the earliest live (time, order) — over random schedule, cancel,
  // stale-cancel and run_until calls, including events that schedule and
  // cancel from inside their own body. The backlog stays bounded by the
  // queue throughout.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    su::Rng rng(seed);
    ss::Scheduler sched;
    struct Ref {
      double at;
      bool live;
      ss::EventId id;
    };
    std::vector<Ref> ref;  // index = schedule order
    std::vector<std::size_t> fired;
    std::vector<ss::EventId> all_ids;
    std::function<void(double)> add = [&](double t) {
      std::size_t k = ref.size();
      double at = std::max(t, sched.now());
      ref.push_back({at, true, ss::kInvalidEventId});
      ref[k].id = sched.schedule_at(t, [&, k] {
        EXPECT_TRUE(ref[k].live) << "a cancelled event ran";
        fired.push_back(k);
        ref[k].live = false;
        if (rng.below(4) == 0) add(sched.now() + static_cast<double>(rng.below(3)));
        if (rng.below(4) == 0) {
          std::size_t victim = rng.below(ref.size());
          sched.cancel(ref[victim].id);
          ref[victim].live = false;
        }
      });
      all_ids.push_back(ref[k].id);
    };
    for (int round = 0; round < 300; ++round) {
      const std::uint64_t op = rng.below(10);
      if (op < 5) {
        add(sched.now() + static_cast<double>(rng.below(20)));
      } else if (op < 7 && !ref.empty()) {
        std::size_t victim = rng.below(ref.size());
        sched.cancel(ref[victim].id);  // live, fired or already cancelled
        ref[victim].live = false;
      } else {
        double horizon = sched.now() + static_cast<double>(rng.below(10));
        // Everything run is due, in (time, schedule order); every live
        // event left is past the horizon.
        fired.clear();
        sched.run_until(horizon);
        for (std::size_t k : fired) EXPECT_LE(ref[k].at, horizon);
        for (std::size_t i = 1; i < fired.size(); ++i) {
          const Ref& a = ref[fired[i - 1]];
          const Ref& b = ref[fired[i]];
          EXPECT_TRUE(a.at < b.at || (a.at == b.at && fired[i - 1] < fired[i]))
              << "seed " << seed << " round " << round;
        }
        for (std::size_t k = 0; k < ref.size(); ++k) {
          if (ref[k].live) {
            EXPECT_GT(ref[k].at, horizon) << "live event left behind";
          }
        }
      }
      EXPECT_LE(sched.cancelled_backlog(), sched.pending_events());
    }
    sched.run_all();
    EXPECT_EQ(sched.cancelled_backlog(), 0u);
    EXPECT_EQ(sched.pending_events(), 0u);
    for (ss::EventId id : all_ids) sched.cancel(id);  // every id is now stale
    EXPECT_EQ(sched.cancelled_backlog(), 0u);
  }
}

// --- Trajectory / mobility ---------------------------------------------------

TEST(Trajectory, InterpolatesLinearly) {
  ss::Trajectory tr;
  tr.add(0, {0, 0});
  tr.add(10, {100, 0});
  auto p = tr.at(5);
  EXPECT_DOUBLE_EQ(p.x, 50);
  EXPECT_DOUBLE_EQ(p.y, 0);
}

TEST(Trajectory, ClampsOutsideRange) {
  ss::Trajectory tr;
  tr.add(10, {1, 2});
  tr.add(20, {3, 4});
  EXPECT_DOUBLE_EQ(tr.at(0).x, 1);
  EXPECT_DOUBLE_EQ(tr.at(100).x, 3);
}

TEST(Trajectory, DwellSegmentsHold) {
  ss::Trajectory tr;
  tr.add(0, {5, 5});
  tr.add(10, {5, 5});
  tr.add(20, {15, 5});
  EXPECT_DOUBLE_EQ(tr.at(7).x, 5);
  EXPECT_DOUBLE_EQ(tr.at(15).x, 10);
  // The hold ends with the dwell segment, starts nowhere on a moving one,
  // and lasts forever after the last anchor.
  EXPECT_EQ(tr.held_at(7).until, 10.0);
  EXPECT_EQ(tr.held_at(15).until, 15.0);
  EXPECT_EQ(tr.held_at(25).until, HUGE_VAL);
  for (double t = 7; t < 10; t += 0.25) {
    EXPECT_EQ(tr.at(t).x, tr.held_at(7).pos.x) << t;
    EXPECT_EQ(tr.at(t).y, tr.held_at(7).pos.y) << t;
  }
}

namespace {
// 0: random waypoint, 1: daily routine.
std::unique_ptr<ss::TrajectoryMobility> make_model(int which, std::size_t nodes,
                                                   double horizon, su::Rng& rng) {
  switch (which) {
    case 0:
      return ss::random_waypoint(nodes, horizon, {}, rng);
    default:
      return ss::daily_routine(nodes, horizon, {}, rng);
  }
}
}  // namespace

class MobilityBounds : public ::testing::TestWithParam<int> {};

TEST_P(MobilityBounds, PositionsStayInArea) {
  su::Rng rng(99);
  auto m = make_model(GetParam(), 8, su::days(2), rng);
  ss::AreaSpec area{};
  for (std::size_t node = 0; node < m->node_count(); ++node) {
    for (double t = 0; t <= su::days(2); t += 977.0) {
      auto p = m->position(node, t);
      EXPECT_GE(p.x, -1e-9);
      EXPECT_LE(p.x, area.width_m + 1e-9);
      EXPECT_GE(p.y, -1e-9);
      EXPECT_LE(p.y, area.height_m + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, MobilityBounds, ::testing::Values(0, 1));

// Degenerate-parameter regressions: a zero speed draw used to produce an
// infinite travel time, and a zero-distance leg with zero pause (e.g. a 0x0
// area) used to spin the generation loop forever without advancing t.
TEST(RandomWaypoint, ZeroSpeedParamsTerminateWithFiniteAnchors) {
  su::Rng rng(3);
  ss::RandomWaypointParams params;
  params.min_speed_mps = 0.0;
  params.max_speed_mps = 0.0;
  params.min_pause_s = 0.0;
  params.max_pause_s = 0.0;
  auto m = ss::random_waypoint(3, 5000.0, params, rng);
  for (std::size_t node = 0; node < 3; ++node) {
    const auto& tr = m->trajectory(node);
    EXPECT_TRUE(std::isfinite(tr.end_time()));
    auto p = m->position(node, 2500.0);
    EXPECT_TRUE(std::isfinite(p.x));
    EXPECT_TRUE(std::isfinite(p.y));
  }
}

TEST(RandomWaypoint, ZeroAreaZeroPauseDoesNotHang) {
  su::Rng rng(4);
  ss::RandomWaypointParams params;
  params.area = {0.0, 0.0};  // every target equals the current position
  params.min_pause_s = 0.0;
  params.max_pause_s = 0.0;
  auto m = ss::random_waypoint(2, 1000.0, params, rng);
  for (std::size_t node = 0; node < 2; ++node) {
    auto p = m->position(node, 500.0);
    EXPECT_DOUBLE_EQ(p.x, 0.0);
    EXPECT_DOUBLE_EQ(p.y, 0.0);
  }
}

class MobilityDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(MobilityDeterminism, SameSeedSamePositions) {
  su::Rng rng1(7), rng2(7);
  auto a = make_model(GetParam(), 5, su::days(1), rng1);
  auto b = make_model(GetParam(), 5, su::days(1), rng2);
  for (std::size_t node = 0; node < 5; ++node) {
    for (double t = 0; t < su::days(1); t += 3601.0) {
      auto pa = a->position(node, t);
      auto pb = b->position(node, t);
      EXPECT_DOUBLE_EQ(pa.x, pb.x);
      EXPECT_DOUBLE_EQ(pa.y, pb.y);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, MobilityDeterminism, ::testing::Values(0, 1));

TEST(DailyRoutine, NodesSleepAtHomeOvernight) {
  su::Rng rng(3);
  auto m = ss::daily_routine(6, su::days(3), {}, rng);
  // At 3am every node is at the same place it was at 1am (asleep at home).
  for (std::size_t node = 0; node < 6; ++node) {
    for (int day = 1; day < 3; ++day) {
      auto p1 = m->position(node, su::days(day) + su::hours(1));
      auto p3 = m->position(node, su::days(day) + su::hours(3));
      EXPECT_NEAR(p1.x, p3.x, 1e-6);
      EXPECT_NEAR(p1.y, p3.y, 1e-6);
    }
  }
}

TEST(DailyRoutine, WeekdayCreatesCoLocation) {
  // With clustered hotspots, some pair should pass within radio range on a
  // weekday; this is the mechanism that makes D2D encounters happen at all.
  su::Rng rng(5);
  ss::DailyRoutineParams params;
  params.hotspot_count = 3;
  auto m = ss::daily_routine(10, su::days(1), params, rng);
  double best = 1e18;
  for (double t = su::hours(8); t < su::hours(22); t += 300.0) {
    for (std::size_t i = 0; i < 10; ++i)
      for (std::size_t j = i + 1; j < 10; ++j)
        best = std::min(best, ss::distance(m->position(i, t), m->position(j, t)));
  }
  EXPECT_LT(best, 150.0);
}

// --- multi-community daily routine ------------------------------------------

namespace {
/// Community grid cell (see daily_routine: near-square grid over the area)
/// a position falls into, for membership checks.
std::size_t community_of(const ss::Vec2& p, const ss::AreaSpec& area, std::size_t k) {
  std::size_t gx = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(k))));
  std::size_t gy = (k + gx - 1) / gx;
  auto clamp_idx = [](double v, std::size_t n) {
    auto i = static_cast<std::size_t>(std::max(v, 0.0));
    return i < n ? i : n - 1;
  };
  std::size_t cx = clamp_idx(p.x / (area.width_m / static_cast<double>(gx)), gx);
  std::size_t cy = clamp_idx(p.y / (area.height_m / static_cast<double>(gy)), gy);
  return cy * gx + cx;
}
}  // namespace

TEST(DailyRoutine, NonBridgeNodesStayInTheirCommunityCell) {
  su::Rng rng(11);
  ss::DailyRoutineParams params;
  params.area = {6000, 6000};
  params.community_count = 4;
  params.bridge_node_frac = 0.0;  // nobody commutes
  auto m = ss::daily_routine(16, su::days(3), params, rng);
  for (std::size_t node = 0; node < 16; ++node) {
    for (double t = 0; t < su::days(3); t += 1800.0) {
      EXPECT_EQ(community_of(m->position(node, t), params.area, 4), node % 4)
          << "node " << node << " left its community at t=" << t;
    }
  }
}

TEST(DailyRoutine, BridgeNodesVisitMultipleCommunities) {
  su::Rng rng(13);
  ss::DailyRoutineParams params;
  params.area = {6000, 6000};
  params.community_count = 4;
  params.bridge_node_frac = 1.0;  // everyone commutes
  params.active_weekdays = 5;     // attend daily so the rotation is visible
  params.active_attend_p = 1.0;
  auto m = ss::daily_routine(8, su::days(3), params, rng);
  // Some node's midday position must land in different communities on
  // different (week)days: the bridge rotation at work.
  bool some_node_moved = false;
  for (std::size_t node = 0; node < 8 && !some_node_moved; ++node) {
    std::set<std::size_t> seen;
    for (int day = 0; day < 3; ++day) {
      if (su::is_weekend(su::days(day))) continue;
      seen.insert(community_of(m->position(node, su::days(day) + su::hours(13)),
                               params.area, 4));
    }
    some_node_moved = seen.size() > 1;
  }
  EXPECT_TRUE(some_node_moved);
}

TEST(DailyRoutine, HomeSeparationKeepsHouseholdsApart) {
  su::Rng rng(17);
  ss::DailyRoutineParams params;
  params.area = {6000, 6000};
  params.community_count = 4;
  params.home_min_separation_m = 150.0;
  auto m = ss::daily_routine(24, su::days(1), params, rng);
  // 4am: everyone is asleep at home; all pairwise home distances respect
  // the separation floor (the knob that keeps overnight pairs out of radio
  // range and the episode graph decomposable).
  for (std::size_t i = 0; i < 24; ++i) {
    for (std::size_t j = i + 1; j < 24; ++j) {
      EXPECT_GE(ss::distance(m->position(i, su::hours(4)), m->position(j, su::hours(4))),
                150.0)
          << "homes " << i << " and " << j;
    }
  }
}

TEST(DailyRoutine, SingleCommunityConfigMatchesClassicModel) {
  // community_count = 1 (and 0) must reproduce the classic generator
  // draw-for-draw: the whole sweep history rests on that stream.
  su::Rng rng_classic(23), rng_one(23), rng_zero(23);
  ss::DailyRoutineParams classic;
  ss::DailyRoutineParams one = classic;
  one.community_count = 1;
  one.bridge_node_frac = 0.25;  // irrelevant without communities: never drawn
  ss::DailyRoutineParams zero = classic;
  zero.community_count = 0;
  auto a = ss::daily_routine(6, su::days(2), classic, rng_classic);
  auto b = ss::daily_routine(6, su::days(2), one, rng_one);
  auto c = ss::daily_routine(6, su::days(2), zero, rng_zero);
  for (std::size_t node = 0; node < 6; ++node) {
    for (double t = 0; t < su::days(2); t += 3600.0) {
      auto pa = a->position(node, t);
      auto pb = b->position(node, t);
      auto pc = c->position(node, t);
      EXPECT_DOUBLE_EQ(pa.x, pb.x);
      EXPECT_DOUBLE_EQ(pa.y, pb.y);
      EXPECT_DOUBLE_EQ(pa.x, pc.x);
      EXPECT_DOUBLE_EQ(pa.y, pc.y);
    }
  }
}

// --- EncounterDetector ------------------------------------------------------

namespace {
/// Two nodes that approach, meet, and separate on a straight line.
std::unique_ptr<ss::TrajectoryMobility> approach_and_leave() {
  std::vector<ss::Trajectory> trs(2);
  trs[0].add(0, {0, 0});
  trs[0].add(1000, {0, 0});
  trs[1].add(0, {500, 0});
  trs[1].add(250, {10, 0});   // within 50m range
  trs[1].add(500, {10, 0});
  trs[1].add(750, {500, 0});  // leaves
  trs[1].add(1000, {500, 0});
  return std::make_unique<ss::TrajectoryMobility>(std::move(trs));
}
}  // namespace

TEST(EncounterDetector, DetectsContactStartAndEnd) {
  ss::Scheduler sched;
  auto m = approach_and_leave();
  ss::EncounterDetector det(sched, *m, 50.0, 10.0);
  double start_t = -1, end_t = -1;
  det.on_contact_start = [&](std::size_t a, std::size_t b) {
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    start_t = sched.now();
  };
  det.on_contact_end = [&](std::size_t, std::size_t) { end_t = sched.now(); };
  det.start(1000);
  sched.run_all();
  EXPECT_GT(start_t, 200.0);
  EXPECT_LT(start_t, 300.0);
  EXPECT_GT(end_t, 500.0);
  EXPECT_LT(end_t, 800.0);
  EXPECT_EQ(det.total_contacts_seen(), 1u);
}

TEST(EncounterDetector, GridMatchesBruteForce) {
  su::Rng rng(21);
  auto m = ss::random_waypoint(40, 2000, {}, rng);
  ss::Scheduler sched;
  ss::EncounterDetector det(sched, *m, 200.0, 50.0);
  std::set<std::pair<std::size_t, std::size_t>> events;
  det.on_contact_start = [&](std::size_t a, std::size_t b) { events.insert({a, b}); };
  det.start(1000);
  sched.run_until(1000);
  // brute-force at t=1000
  for (std::size_t i = 0; i < 40; ++i)
    for (std::size_t j = i + 1; j < 40; ++j) {
      bool close = ss::distance(m->position(i, 1000), m->position(j, 1000)) <= 200.0;
      EXPECT_EQ(det.in_contact(i, j), close) << i << "," << j;
    }
}

TEST(EncounterDetector, NoSelfOrDuplicatePairs) {
  su::Rng rng(4);
  auto m = ss::random_waypoint(10, 500, {}, rng);
  ss::Scheduler sched;
  ss::EncounterDetector det(sched, *m, 50000.0, 100.0);  // radius spans the whole area
  int starts = 0;
  det.on_contact_start = [&](std::size_t a, std::size_t b) {
    EXPECT_LT(a, b);
    ++starts;
  };
  det.start(200);
  sched.run_all();
  EXPECT_EQ(starts, 45);  // C(10,2), each exactly once
}

namespace {

struct ScanCoverage {
  int none_moved = 0;
  int one_moved = 0;
  int all_moved = 0;
};

/// Scan `m` every `tick` seconds up to `horizon` and hold the incremental
/// detector to a brute-force all-pairs scan on every tick: the contact set,
/// and the start/end events as that set's diff. Returns how many ticks had
/// no mover, exactly one, and every node moving (the first tick counts as
/// all moved).
ScanCoverage expect_scan_matches_brute_force(const ss::MobilityModel& m, double range,
                                             double tick, double horizon) {
  const std::size_t n = m.node_count();
  ss::Scheduler sched;
  ss::EncounterDetector det(sched, m, range, tick);
  std::set<std::pair<std::size_t, std::size_t>> live;
  det.on_contact_start = [&](std::size_t a, std::size_t b) {
    EXPECT_TRUE(live.insert({a, b}).second) << "duplicate start " << a << "," << b;
  };
  det.on_contact_end = [&](std::size_t a, std::size_t b) {
    EXPECT_EQ(live.erase({a, b}), 1u) << "end without start " << a << "," << b;
  };
  ScanCoverage cov;
  std::vector<ss::Vec2> prev;
  for (double t = 0; t <= horizon; t += tick) {
    sched.run_until(t);
    det.scan();
    std::vector<ss::Vec2> pos(n);
    for (std::size_t i = 0; i < n; ++i) pos[i] = m.position(i, t);
    std::size_t moved = n;
    if (!prev.empty()) {
      moved = 0;
      for (std::size_t i = 0; i < n; ++i)
        if (pos[i].x != prev[i].x || pos[i].y != prev[i].y) ++moved;
    }
    cov.none_moved += moved == 0;
    cov.one_moved += moved == 1;
    cov.all_moved += moved == n;
    prev = pos;
    std::set<std::pair<std::size_t, std::size_t>> brute;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (ss::distance(pos[i], pos[j]) <= range) brute.insert({i, j});
    EXPECT_EQ(live, brute) << "t=" << t;
    EXPECT_EQ(det.contact_count(), brute.size()) << "t=" << t;
    for (const auto& [a, b] : brute) EXPECT_TRUE(det.in_contact(a, b)) << "t=" << t;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(det.total_contacts_seen(), 0u);
  return cov;
}

}  // namespace

TEST(EncounterDetector, IncrementalScanMatchesBruteForceOnScriptedMoves) {
  // Ticks 0..40 s: the first scan (all moved), two ticks where nobody
  // moves, one where node 1 alone walks out of range, one where all move.
  std::vector<ss::Trajectory> trs(4);
  trs[0].add(0, {0, 0});
  trs[0].add(30, {0, 0});
  trs[0].add(40, {5, 0});
  trs[1].add(0, {50, 0});
  trs[1].add(20, {50, 0});
  trs[1].add(30, {200, 0});
  trs[1].add(40, {30, 0});
  trs[2].add(0, {0, 50});
  trs[2].add(30, {0, 50});
  trs[2].add(40, {0, 55});
  trs[3].add(0, {500, 500});
  trs[3].add(30, {500, 500});
  trs[3].add(40, {520, 500});
  ss::TrajectoryMobility m(std::move(trs));
  ScanCoverage cov = expect_scan_matches_brute_force(m, 60.0, 10.0, 40.0);
  EXPECT_EQ(cov.none_moved, 2);
  EXPECT_EQ(cov.one_moved, 1);
  EXPECT_EQ(cov.all_moved, 2);
}

TEST(EncounterDetector, IncrementalScanMatchesBruteForceOnDailyRoutine) {
  su::Rng rng(31);
  ss::DailyRoutineParams params;
  params.area = {1500, 1500};
  params.community_count = 2;
  params.bridge_node_frac = 0.2;
  auto m = ss::daily_routine(30, su::days(2), params, rng);
  ScanCoverage cov = expect_scan_matches_brute_force(*m, 80.0, 30.0, su::days(2));
  EXPECT_GT(cov.none_moved, 100);  // the sleeping fleet
  EXPECT_GT(cov.one_moved, 0);
}

TEST(EncounterDetector, IncrementalScanMatchesBruteForceOnRandomWaypoint) {
  su::Rng rng(32);
  ss::RandomWaypointParams params;
  params.area = {800, 800};
  auto m = ss::random_waypoint(25, 4000, params, rng);
  ScanCoverage cov = expect_scan_matches_brute_force(*m, 120.0, 20.0, 4000);
  EXPECT_GT(cov.all_moved, 1);
}

// --- MultipeerSim ---------------------------------------------------------------

namespace {
struct MpcFixture {
  ss::Scheduler sched;
  ss::MpcNetwork net{sched, 3, ss::RadioParams{}};
};
}  // namespace

TEST(Mpc, DiscoveryRequiresRangeAndRoles) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  std::vector<ss::PeerId> found;
  b.on_peer_found = [&](ss::PeerId p, const ss::Advertisement&) { found.push_back(p); };
  a.start_advertising({{"USER000001", "5"}});
  b.start_browsing();
  f.sched.run_all();
  EXPECT_TRUE(found.empty());  // not in range yet
  f.net.set_in_range(0, 1, true);
  f.sched.run_all();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], 0u);
}

TEST(Mpc, DiscoveryInfoCarriesDictionary) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  ss::DiscoveryInfo seen;
  b.on_peer_found = [&](ss::PeerId, const ss::Advertisement& ad) { seen = ad.render(); };
  a.start_advertising({{"USERAAA", "7"}, {"USERBBB", "3"}});
  b.start_browsing();
  f.net.set_in_range(0, 1, true);
  f.sched.run_all();
  EXPECT_EQ(seen.at("USERAAA"), "7");
  EXPECT_EQ(seen.at("USERBBB"), "3");
}

TEST(Mpc, PeerLostOnRangeExit) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  bool lost = false;
  b.on_peer_lost = [&](ss::PeerId p) { lost = (p == 0); };
  a.start_advertising(ss::DiscoveryInfo{});
  b.start_browsing();
  f.net.set_in_range(0, 1, true);
  f.sched.run_all();
  f.net.set_in_range(0, 1, false);
  f.sched.run_all();
  EXPECT_TRUE(lost);
}

TEST(Mpc, InviteEstablishesAfterSetupTime) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising(ss::DiscoveryInfo{});
  a.start_browsing();
  f.net.set_in_range(0, 1, true);
  double connected_at = -1;
  a.on_connected = [&](ss::PeerId) { connected_at = f.sched.now(); };
  bool b_connected = false;
  b.on_connected = [&](ss::PeerId p) { b_connected = (p == 0); };
  a.invite(1);
  f.sched.run_all();
  EXPECT_NEAR(connected_at, f.net.radio().setup_time_s, 1e-9);
  EXPECT_TRUE(b_connected);
  EXPECT_TRUE(a.is_connected(1));
  EXPECT_EQ(f.net.connections_established(), 1u);
}

TEST(Mpc, InvitationCanBeDeclined) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising(ss::DiscoveryInfo{});
  b.on_invitation = [](ss::PeerId) { return false; };
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  f.sched.run_all();
  EXPECT_FALSE(a.is_connected(1));
  EXPECT_EQ(f.net.connections_failed(), 1u);
}

TEST(Mpc, InviteFailsIfRangeLostDuringSetup) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising(ss::DiscoveryInfo{});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  f.sched.schedule_in(0.5, [&] { f.net.set_in_range(0, 1, false); });
  f.sched.run_all();
  EXPECT_FALSE(a.is_connected(1));
  EXPECT_EQ(f.net.connections_failed(), 1u);
}

TEST(Mpc, ReliableFrameDelivery) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising(ss::DiscoveryInfo{});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  su::Bytes received;
  b.on_receive = [&](ss::PeerId, su::Bytes data) { received = std::move(data); };
  f.sched.run_all();
  a.send(1, su::to_bytes("hello dtn"));
  f.sched.run_all();
  EXPECT_EQ(su::to_string(received), "hello dtn");
  EXPECT_EQ(f.net.frames_delivered(), 1u);
}

TEST(Mpc, FramesArriveInOrderWithBandwidthDelay) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising(ss::DiscoveryInfo{});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  std::vector<std::string> got;
  std::vector<double> at;
  b.on_receive = [&](ss::PeerId, su::Bytes data) {
    got.push_back(su::to_string(data));
    at.push_back(f.sched.now());
  };
  f.sched.run_all();
  su::Bytes big(2'000'000, 0xAA);  // 2MB at 2MB/s ~= 1s on the wire
  a.send(1, big);
  a.send(1, su::to_bytes("second"));
  f.sched.run_all();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], "second");
  EXPECT_GT(at[0], f.net.radio().setup_time_s + 0.9);  // big transfer took ~1s
  EXPECT_GT(at[1], at[0]);                             // serialized behind it
}

TEST(Mpc, MidTransferDisconnectLosesFrame) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising(ss::DiscoveryInfo{});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  int received = 0;
  b.on_receive = [&](ss::PeerId, su::Bytes) { ++received; };
  bool a_dropped = false;
  a.on_disconnected = [&](ss::PeerId) { a_dropped = true; };
  f.sched.run_all();
  su::Bytes big(4'000'000, 0xBB);  // ~2s transfer
  a.send(1, big);
  f.sched.schedule_in(0.5, [&] { f.net.set_in_range(0, 1, false); });
  f.sched.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_TRUE(a_dropped);
  EXPECT_EQ(f.net.frames_lost(), 1u);
}

TEST(Mpc, SendWithoutSessionIsDropped) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  int received = 0;
  f.net.endpoint(1).on_receive = [&](ss::PeerId, su::Bytes) { ++received; };
  a.send(1, su::to_bytes("void"));
  f.sched.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net.frames_sent(), 0u);
}

TEST(Mpc, WireSnifferSeesFrames) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising(ss::DiscoveryInfo{});
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  su::Bytes sniffed;
  f.net.on_wire_frame = [&](ss::PeerId, ss::PeerId, const su::Bytes& w) { sniffed = w; };
  f.sched.run_all();
  a.send(1, su::to_bytes("plaintext-on-the-wire"));
  f.sched.run_all();
  EXPECT_EQ(su::to_string(sniffed), "plaintext-on-the-wire");
}

TEST(Mpc, ReconnectAfterRangeCycle) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  b.start_advertising(ss::DiscoveryInfo{});
  a.start_browsing();
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  f.sched.run_all();
  ASSERT_TRUE(a.is_connected(1));
  f.net.set_in_range(0, 1, false);
  f.sched.run_all();
  EXPECT_FALSE(a.is_connected(1));
  f.net.set_in_range(0, 1, true);
  a.invite(1);
  int received = 0;
  b.on_receive = [&](ss::PeerId, su::Bytes) { ++received; };
  f.sched.run_all();
  ASSERT_TRUE(a.is_connected(1));
  a.send(1, su::to_bytes("again"));
  f.sched.run_all();
  EXPECT_EQ(received, 1);
}

TEST(Mpc, ThreeWayIndependentSessions) {
  MpcFixture f;
  auto& a = f.net.endpoint(0);
  auto& b = f.net.endpoint(1);
  auto& c = f.net.endpoint(2);
  b.start_advertising(ss::DiscoveryInfo{});
  c.start_advertising(ss::DiscoveryInfo{});
  f.net.set_in_range(0, 1, true);
  f.net.set_in_range(0, 2, true);
  a.invite(1);
  a.invite(2);
  f.sched.run_all();
  EXPECT_TRUE(a.is_connected(1));
  EXPECT_TRUE(a.is_connected(2));
  EXPECT_FALSE(b.is_connected(2));
  // Dropping one session leaves the other alive.
  f.net.set_in_range(0, 1, false);
  f.sched.run_all();
  EXPECT_FALSE(a.is_connected(1));
  EXPECT_TRUE(a.is_connected(2));
  EXPECT_EQ(a.connected_peers(), (std::vector<ss::PeerId>{2}));
}
