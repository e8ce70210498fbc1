// Sweep determinism suite (`ctest -L sweep`): a scenario sweep must be a
// pure function of (base seed, grid) — the thread count and completion
// order must never leak into metrics. Also pins the scheduler invariant
// the whole property rests on: same-timestamp events run in insertion
// order (FIFO by EventId).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

#include "deploy/report.hpp"
#include "deploy/sweep.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "run_fingerprint.hpp"

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
    cell.variants = {{"epidemic", "epidemic", 86400.0},
                     {"interest", "interest", 86400.0}};
    grid.push_back(std::move(cell));
  }
  return grid;
}

std::vector<sd::CellResult> run_with_jobs(std::size_t jobs) {
  sd::SweepOptions opts;
  opts.jobs = jobs;
  return sd::SweepRunner(opts).run(tiny_grid());
}
}  // namespace

TEST(Sweep, MetricsBitwiseIdenticalAtAnyThreadCount) {
  auto serial = run_with_jobs(1);
  auto parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, parallel[i].label);
    EXPECT_EQ(serial[i].config.seed, parallel[i].config.seed);
    EXPECT_EQ(fingerprint(serial[i].result), fingerprint(parallel[i].result))
        << "cell/variant " << serial[i].label;
  }
  // The workload actually exercised something.
  std::uint64_t contacts = 0;
  for (const auto& r : serial) contacts += r.result.contacts;
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
  auto results = run_with_jobs(1);
  EXPECT_NE(results[0].config.seed, results[2].config.seed);  // different cells, different streams
  EXPECT_NE(results[0].config.seed, 42u);  // derived, not the raw base seed
  EXPECT_EQ(su::derive_seed(42, 0), results[0].config.seed);
  EXPECT_EQ(su::derive_seed(42, 1), results[2].config.seed);
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
  // metrics must be bitwise identical to run-local memos. A multi-community
  // cell with three scheme variants on three sweep workers shares the memo
  // across concurrently running variants; each is compared with a direct
  // run_scenario call on its own memo.
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
  cell.variants = {{"interest", "interest", 86400.0},
                   {"epidemic", "epidemic", 86400.0},
                   {"prophet", "prophet", 86400.0}};
  sd::SweepOptions opts;
  opts.jobs = 3;
  auto sweep_wide = sd::SweepRunner(opts).run({cell});
  ASSERT_EQ(sweep_wide.size(), 3u);
  auto world = sd::record_world(sweep_wide[0].config);
  std::uint64_t deliveries = 0;
  for (const auto& r : sweep_wide) {
    auto run_local = sd::run_scenario(r.config, world.get());
    EXPECT_EQ(fingerprint(run_local), fingerprint(r.result)) << r.label;
    deliveries += run_local.oracle.delivery_count();
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

// --- sweep_options_from_args: the scenario benches' command line -----------

namespace {
/// Parses `args` as a bench driver's command line (argv[0] prepended).
sd::SweepOptions parse_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  return sd::sweep_options_from_args(static_cast<int>(args.size()), argv.data());
}
}  // namespace

TEST(SweepCli, EveryJobsSpellingParses) {
  EXPECT_EQ(parse_cli({}).jobs, 1u);
  EXPECT_EQ(parse_cli({"--jobs", "3"}).jobs, 3u);
  EXPECT_EQ(parse_cli({"--jobs=2"}).jobs, 2u);
  EXPECT_EQ(parse_cli({"-j", "4"}).jobs, 4u);
  EXPECT_EQ(parse_cli({"-j3"}).jobs, 3u);
  // Several spellings on one line: the last value wins, and nothing else
  // in SweepOptions moves.
  auto last = parse_cli({"--jobs", "2", "--jobs=3", "-j4"});
  EXPECT_EQ(last.jobs, 4u);
  EXPECT_EQ(last.base_seed, sd::SweepOptions{}.base_seed);
  EXPECT_EQ(last.derive_seeds, sd::SweepOptions{}.derive_seeds);
}

TEST(SweepCli, UnrecognisedArgumentsWarnByName) {
  // An argument the sweep does not know warns on stderr, naming it, and is
  // otherwise ignored: a mistyped or retired flag must not quietly run
  // something else.
  testing::internal::CaptureStderr();
  auto opts = parse_cli({"--jobs", "2", "--threads", "3", "--verbose"});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(opts.jobs, 2u);
  EXPECT_NE(err.find("unrecognised argument '--threads'"), std::string::npos) << err;
  EXPECT_NE(err.find("unrecognised argument '3'"), std::string::npos) << err;
  EXPECT_NE(err.find("unrecognised argument '--verbose'"), std::string::npos) << err;
  // Known flags and their values warn about nothing.
  testing::internal::CaptureStderr();
  parse_cli({"--jobs", "2", "-j3", "--jobs=4"});
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(SweepCli, MissingOrInvalidValueKeepsThePreviousOne) {
  // A missing value warns and is ignored.
  EXPECT_EQ(parse_cli({"--jobs"}).jobs, 1u);
  EXPECT_EQ(parse_cli({"--jobs", "2", "--jobs"}).jobs, 2u);
  EXPECT_EQ(parse_cli({"-j"}).jobs, 1u);
  // A flag is never taken as the value of the flag before it.
  EXPECT_EQ(parse_cli({"--jobs", "-j2"}).jobs, 2u);
  EXPECT_EQ(parse_cli({"--jobs", "3", "-j", "--jobs=4"}).jobs, 4u);
  EXPECT_EQ(parse_cli({"-j", "--jobs", "2"}).jobs, 2u);
  // Non-numeric, partly numeric, empty and negative values never become
  // 0 (= every core): each keeps whatever the earlier arguments set.
  EXPECT_EQ(parse_cli({"--jobs", "3", "--jobs", "four"}).jobs, 3u);
  EXPECT_EQ(parse_cli({"--jobs", "2", "--jobs", "3x"}).jobs, 2u);
  EXPECT_EQ(parse_cli({"--jobs=2", "--jobs="}).jobs, 2u);
  EXPECT_EQ(parse_cli({"--jobs=2", "--jobs=-1"}).jobs, 2u);
  EXPECT_EQ(parse_cli({"-j", "3", "-j", "-2"}).jobs, 3u);
  EXPECT_EQ(parse_cli({"-j2", "-jx"}).jobs, 2u);
  EXPECT_EQ(parse_cli({"--jobs", "-4"}).jobs, 1u);
}

TEST(SweepCli, EnvironmentVariablesAreNotRead) {
  // The job counts come from the command line only; the environment
  // variables earlier versions read must no longer change the result.
  ASSERT_EQ(::setenv("SOS_SWEEP_JOBS", "3", 1), 0);
  ASSERT_EQ(::setenv("SOS_SUBEPISODE_JOBS", "2", 1), 0);
  const sd::SweepOptions defaults = parse_cli({});
  const sd::SweepOptions flagged = parse_cli({"--jobs", "4"});
  ::unsetenv("SOS_SWEEP_JOBS");
  ::unsetenv("SOS_SUBEPISODE_JOBS");
  EXPECT_EQ(defaults.jobs, 1u);
  EXPECT_EQ(flagged.jobs, 4u);
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
