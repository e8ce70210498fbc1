// Sweep determinism suite (`ctest -L sweep`): a scenario sweep must be a
// pure function of (base seed, grid) — the thread count and completion
// order must never leak into metrics. Also pins the scheduler invariant
// the whole property rests on: same-timestamp events run in insertion
// order (FIFO by EventId).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "deploy/replay.hpp"
#include "deploy/report.hpp"
#include "deploy/sweep.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace sd = sos::deploy;
namespace ss = sos::sim;
namespace su = sos::util;

namespace {
/// Small-but-real grid: 2 worlds x 2 scheme variants, one simulated day.
std::vector<sd::SweepCell> tiny_grid() {
  std::vector<sd::SweepCell> grid;
  for (double side : {1200.0, 2500.0}) {
    sd::SweepCell cell;
    cell.label = sd::fmt(side, 0) + "m";
    cell.config = sd::gainesville_config("interest");
    cell.config.nodes = 8;
    cell.config.area_w_m = side;
    cell.config.area_h_m = side;
    cell.config.days = 1.0;
    cell.config.total_posts_target = 40.0;
    cell.variants = {{"epidemic", "epidemic", 86400.0, 0.0},
                     {"interest", "interest", 86400.0, 0.0}};
    grid.push_back(std::move(cell));
  }
  return grid;
}

/// The metrics that must be bitwise identical across thread counts.
struct Fingerprint {
  std::size_t posts, deliveries;
  std::uint64_t contacts, wire_frames, wire_bytes, connections;
  std::uint64_t bundles_sent, sessions_established, full_handshakes, ecdh_ops;
  std::string label;
  std::uint64_t seed;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const sd::CellResult& r) {
  return {r.result.oracle.post_count(),
          r.result.oracle.delivery_count(),
          r.result.contacts,
          r.result.wire_frames,
          r.result.wire_bytes,
          r.result.connections,
          r.result.totals.bundles_sent,
          r.result.totals.sessions_established,
          r.result.totals.full_handshakes,
          r.result.totals.ecdh_ops,
          r.label,
          r.config.seed};
}

std::vector<Fingerprint> run_with_jobs(std::size_t jobs) {
  sd::SweepOptions opts;
  opts.jobs = jobs;
  auto results = sd::SweepRunner(opts).run(tiny_grid());
  std::vector<Fingerprint> fps;
  for (const auto& r : results) fps.push_back(fingerprint(r));
  return fps;
}
}  // namespace

TEST(Sweep, MetricsBitwiseIdenticalAtAnyThreadCount) {
  auto serial = run_with_jobs(1);
  auto parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "cell/variant " << serial[i].label;
  }
  // The workload actually exercised something.
  std::uint64_t contacts = 0;
  for (const auto& fp : serial) contacts += fp.contacts;
  EXPECT_GT(contacts, 0u);
}

TEST(Sweep, ResultsComeBackInGridOrder) {
  sd::SweepOptions opts;
  opts.jobs = 4;
  auto results = sd::SweepRunner(opts).run(tiny_grid());
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].cell, i / 2);
    EXPECT_EQ(results[i].variant, i % 2);
  }
  EXPECT_EQ(results[0].label, "1200m/epidemic");
  EXPECT_EQ(results[3].label, "2500m/interest");
}

TEST(Sweep, VariantsShareTheCellWorld) {
  sd::SweepOptions opts;
  opts.jobs = 2;
  auto results = sd::SweepRunner(opts).run(tiny_grid());
  // Same world => same encounters and seed for both variants of a cell...
  EXPECT_EQ(results[0].result.contacts, results[1].result.contacts);
  EXPECT_EQ(results[0].config.seed, results[1].config.seed);
  EXPECT_EQ(results[2].result.contacts, results[3].result.contacts);
  // ...and epidemic floods at least as far as interest over those contacts.
  EXPECT_GE(results[0].result.oracle.delivery_count(),
            results[1].result.oracle.delivery_count());
}

TEST(Sweep, DerivedSeedsDecorrelateCells) {
  auto fps = run_with_jobs(1);
  EXPECT_NE(fps[0].seed, fps[2].seed);  // different cells, different streams
  EXPECT_NE(fps[0].seed, 42u);          // derived, not the raw base seed
  EXPECT_EQ(su::derive_seed(42, 0), fps[0].seed);
  EXPECT_EQ(su::derive_seed(42, 1), fps[2].seed);
}

TEST(Sweep, DeriveSeedsOffKeepsConfiguredSeed) {
  sd::SweepOptions opts;
  opts.derive_seeds = false;
  auto grid = tiny_grid();
  grid.resize(1);
  grid[0].config.seed = 1234;
  grid[0].variants.resize(1);
  auto results = sd::SweepRunner(opts).run(grid);
  EXPECT_EQ(results[0].config.seed, 1234u);
}

TEST(Sweep, ReplayOfRecordedWorldIsDeterministic) {
  auto grid = tiny_grid();
  sd::ScenarioConfig config = grid[0].config;
  config.seed = su::derive_seed(7, 0);
  auto world = sd::record_world(config);
  EXPECT_GT(world->trace.size(), 0u);
  auto a = sd::run_scenario(config, world.get());
  auto b = sd::run_scenario(config, world.get());
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.oracle.delivery_count(), b.oracle.delivery_count());
  EXPECT_EQ(a.contacts, world->trace.size());
}

TEST(Sweep, SweepWideMemoScopeDoesNotChangeMetrics) {
  // The sweep-wide verify memo (one crypto::VerifyMemo shared by every
  // variant of a cell, concurrently) is pure-function memoization: per-cell
  // metrics must be bitwise identical to run-local memos at any thread
  // count. A multi-community cell with three scheme variants exercises the
  // cross-variant sharing under both cell- and strand-level workers.
  auto community_cell = [] {
    sd::SweepCell cell;
    cell.label = "memo";
    cell.config = sd::gainesville_config("interest");
    cell.config.nodes = 15;
    cell.config.area_w_m = 2000;
    cell.config.area_h_m = 2000;
    cell.config.days = 2.0;
    cell.config.communities = 3;
    cell.config.bridge_node_frac = 0.2;
    cell.config.mobility.home_min_separation_m = 150.0;
    cell.config.total_posts_target = 80.0;
    cell.variants = {{"interest", "interest", 86400.0, 0.0},
                     {"epidemic", "epidemic", 86400.0, 0.0},
                     {"prophet", "prophet", 86400.0, 0.0}};
    return cell;
  };
  sd::SweepOptions local_opts;
  local_opts.jobs = 1;
  local_opts.cell_verify_memo = false;
  auto run_local = sd::SweepRunner(local_opts).run({community_cell()});
  sd::SweepOptions shared_opts;
  shared_opts.jobs = 3;
  shared_opts.subepisode_jobs = 2;
  shared_opts.cell_verify_memo = true;
  auto sweep_wide = sd::SweepRunner(shared_opts).run({community_cell()});
  ASSERT_EQ(run_local.size(), sweep_wide.size());
  std::uint64_t deliveries = 0;
  for (std::size_t i = 0; i < run_local.size(); ++i) {
    EXPECT_EQ(fingerprint(run_local[i]), fingerprint(sweep_wide[i])) << run_local[i].label;
    deliveries += run_local[i].result.oracle.delivery_count();
  }
  EXPECT_GT(deliveries, 0u);
}

TEST(Sweep, CellResultsReportStrandParallelism) {
  // The per-cell strand parallelism ceiling and width ride along with every
  // variant result (the density benches print them), and a recorded world
  // always yields at least one contact task.
  sd::SweepOptions opts;
  opts.jobs = 2;
  auto results = sd::SweepRunner(opts).run(tiny_grid());
  for (const auto& r : results) {
    EXPECT_GE(r.subepisode_parallelism, 1.0) << r.label;
    EXPECT_GT(r.subepisode_width, 0u) << r.label;
  }
  // Variants of one cell share the recorded world, hence the same partition.
  EXPECT_DOUBLE_EQ(results[0].subepisode_parallelism, results[1].subepisode_parallelism);
  EXPECT_EQ(results[0].subepisode_width, results[1].subepisode_width);
}

// --- WorkerBudget: the token pool behind nested parallelism ----------------

TEST(WorkerBudget, DonationNeverLeaksOrMintsTokens) {
  // The donation path: finished cell workers release(1) their own thread
  // while strand workers concurrently acquire(1) to grow. Conservation is
  // by protocol (every acquire()'s return value is eventually released by
  // its owner), so hammer exactly that protocol from many threads and
  // assert the pool returns to its initial size — a lost token would starve
  // later cells, a minted one would oversubscribe the job count. Run under
  // -DSOS_SANITIZE=thread via `ctest -L sweep` for the data-race half.
  static constexpr std::size_t kTokens = 4;
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 2000;
  sd::WorkerBudget budget(kTokens);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&budget, t] {
      for (int r = 0; r < kRounds; ++r) {
        // Mix bulk grabs (engine startup: acquire(want)) with the
        // single-token opportunistic borrow (mid-run growth).
        std::size_t got = budget.acquire(t % 3 == 0 ? 3 : 1);
        ASSERT_LE(got, kTokens);
        if (got > 1) budget.release(got - 1);  // partial give-back
        if (got > 0) budget.release(1);        // the donation itself
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(budget.available(), kTokens);
  // Quiescent pool still grants what it holds, no more.
  EXPECT_EQ(budget.acquire(kTokens + 5), kTokens);
  EXPECT_EQ(budget.acquire(1), 0u);
  budget.release(kTokens);
}

TEST(WorkerBudget, DonatedThreadsDoNotChangeSweepMetrics) {
  // End-to-end donation: one cell, several variants, jobs well above the
  // cell-worker count, so the surplus seeds the budget and finished cell
  // workers donate into strand engines still running. Metrics must be
  // bitwise identical to the fully serial run.
  auto grid = tiny_grid();
  sd::SweepOptions serial_opts;
  serial_opts.jobs = 1;
  auto serial = sd::SweepRunner(serial_opts).run(grid);
  sd::SweepOptions donate_opts;
  donate_opts.jobs = 8;  // 4 work items -> 4 cell workers + 4 budget tokens
  donate_opts.subepisode_jobs = 3;
  auto donated = sd::SweepRunner(donate_opts).run(grid);
  ASSERT_EQ(serial.size(), donated.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(donated[i]))
        << serial[i].label;
  }
}

// --- the scheduler invariant the sweep property rests on -------------------

TEST(Scheduler, SameTimestampEventsRunInInsertionOrder) {
  ss::Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(10.0, [&] { order.push_back(0); });
  sched.schedule_at(10.0, [&] { order.push_back(1); });
  sched.schedule_at(5.0, [&] { order.push_back(2); });
  sched.schedule_at(10.0, [&] { order.push_back(3); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 3}));
}

TEST(Scheduler, EventsScheduledMidRunAtNowRunAfterExistingPeers) {
  // An event that schedules a follow-up at the current timestamp must see
  // that follow-up run after the already-queued same-timestamp events:
  // EventIds are monotonically increasing and break timestamp ties FIFO.
  ss::Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(10.0, [&] {
    order.push_back(0);
    sched.schedule_at(10.0, [&] { order.push_back(9); });
  });
  sched.schedule_at(10.0, [&] { order.push_back(1); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9}));
}

TEST(Scheduler, CancelledHeadDoesNotPerturbOrdering) {
  ss::Scheduler sched;
  std::vector<int> order;
  auto id = sched.schedule_at(10.0, [&] { order.push_back(0); });
  sched.schedule_at(10.0, [&] { order.push_back(1); });
  sched.schedule_at(10.0, [&] { order.push_back(2); });
  sched.cancel(id);
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}
