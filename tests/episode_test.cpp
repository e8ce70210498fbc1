// Partitioned replay suite (`ctest -L sweep`): the ContactDag partition
// invariants, the determinism pins the strand engine's whole value rests on
// — strand replay at any worker count and the fused one-task "mono" session
// are bitwise identical to the single-scheduler reference — and the
// cross-task state handoffs (a bundle picked up in one task is delivered in
// the next, and a bundle crosses three contact strands nested under one
// anchor contact, through the SosNode detach/attach seam).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "deploy/replay.hpp"
#include "deploy/sweep.hpp"
#include "mw/routing.hpp"
#include "mw/sos_node.hpp"
#include "sim/mobility.hpp"
#include "sim/scheduler.hpp"
#include "sim/subepisode.hpp"
#include "util/rng.hpp"
#include "run_fingerprint.hpp"

namespace sd = sos::deploy;
namespace sg = sos::graph;
namespace sm = sos::mw;
namespace ss = sos::sim;
namespace su = sos::util;

namespace {

ss::ContactTrace make_trace(std::vector<ss::ContactInterval> contacts) {
  ss::ContactTrace t;
  for (const auto& c : contacts) EXPECT_TRUE(t.add(c));
  return t;
}

/// The mono path: a ReplaySession with default options (one fused task per
/// segment) driven straight to the horizon.
sd::ScenarioResult run_mono(const sd::ScenarioConfig& config, const sd::ScenarioWorld& world) {
  sd::ReplaySession session(config, world, {});
  session.advance_to(session.horizon());
  return session.finish();
}

}  // namespace

// --- ContactDag partition invariants ------------------------------------------

TEST(ContactDag, SpanFusionIsDroppedButOverlapFusionStays) {
  // Node 1's second contact (0,1)@[50,60] starts inside the span [0,100]
  // of the cluster {(1,2), (2,3)}, but it overlaps no contact at a shared
  // node, and node 1 detaches from that cluster at t=30 — well before its
  // next contact at 50 — so span overlap alone forces nothing: two tasks.
  auto trace = make_trace({{0, 30, 1, 2}, {20, 100, 2, 3}, {50, 60, 0, 1}});
  auto dag = ss::ContactDag::partition(trace, 4, 1000);
  ASSERT_EQ(dag.contact_task_count(), 2u);
  const ss::ContactTask& a = dag.tasks()[0];
  const ss::ContactTask& b = dag.tasks()[1];
  EXPECT_EQ(a.contacts, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(b.contacts, (std::vector<std::size_t>{2}));
  // Node 1's strand in A ends at 30, its strand in B starts at 50: a real
  // gap, crossed by the chain dep that hands node 1's state to B's shard.
  ASSERT_EQ(a.strands.size(), 3u);
  EXPECT_EQ(a.strands[0].node, 1u);
  EXPECT_DOUBLE_EQ(a.strands[0].last_end, 30.0);
  EXPECT_EQ(b.deps, (std::vector<std::size_t>{0}));
  // The two spans still overlap in sim time, yet B waits on A through
  // node 1: concurrency in sim time, one chain in the DAG.
  EXPECT_EQ(dag.width(), 2u);
  EXPECT_DOUBLE_EQ(dag.parallelism(), 1.0);
}

TEST(ContactDag, TouchingContactsSharingANodeFuse) {
  // Back-to-back contacts of node 1: both produce events at t=100, which
  // must land on one scheduler shard — touching intervals fuse, which is
  // also what makes strand windows across tasks *strictly* disjoint.
  auto trace = make_trace({{0, 100, 0, 1}, {100, 200, 1, 2}});
  auto dag = ss::ContactDag::partition(trace, 3, 1000);
  EXPECT_EQ(dag.contact_task_count(), 1u);
}

TEST(ContactDag, SequentialContactsChainAndConcurrentPairsStayParallel) {
  // Node 1 meets 0 then 2 (chained through node 1's strand sequence);
  // (3,4) overlaps both in time but shares no node, so it rides a third,
  // independent task.
  auto trace = make_trace({{0, 100, 0, 1}, {200, 300, 1, 2}, {50, 250, 3, 4}});
  auto dag = ss::ContactDag::partition(trace, 5, 1000);
  ASSERT_EQ(dag.contact_task_count(), 3u);
  EXPECT_TRUE(dag.tasks()[0].deps.empty());
  EXPECT_EQ(dag.tasks()[1].deps, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(dag.tasks()[2].deps.empty());
  EXPECT_EQ(dag.width(), 2u);
  EXPECT_DOUBLE_EQ(dag.parallelism(), 1.5);  // 3 contacts / chain of 2
  // The tail covers every node's idle run-out and follows each node's last
  // contact task.
  const ss::ContactTask& tail = dag.tasks().back();
  EXPECT_TRUE(tail.contacts.empty());
  EXPECT_EQ(tail.strands.size(), 5u);
  EXPECT_DOUBLE_EQ(tail.last_end, 1000.0);
  EXPECT_EQ(tail.deps, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ContactDag, FusedPartitionHoldsEveryNodeInOneTask) {
  // The mono partition of the same trace: one task over every contact and
  // every node (idle node 5 included), each strand ending at the trace's
  // last contact end, then the tail.
  auto trace = make_trace({{0, 100, 0, 1}, {200, 300, 1, 2}, {50, 250, 3, 4}});
  auto dag = ss::ContactDag::fused(trace, 6, 1000);
  ASSERT_EQ(dag.contact_task_count(), 1u);
  ASSERT_EQ(dag.tasks().size(), 2u);
  const ss::ContactTask& all = dag.tasks()[0];
  EXPECT_EQ(all.contacts, (std::vector<std::size_t>{0, 1, 2}));
  ASSERT_EQ(all.strands.size(), 6u);
  for (const ss::ContactStrand& s : all.strands) EXPECT_DOUBLE_EQ(s.last_end, 300.0);
  EXPECT_DOUBLE_EQ(all.first_start, 0.0);
  EXPECT_EQ(dag.tasks()[1].deps, (std::vector<std::size_t>{0}));
  EXPECT_DOUBLE_EQ(dag.tasks()[1].last_end, 1000.0);
  EXPECT_DOUBLE_EQ(dag.parallelism(), 1.0);
  // An empty segment is the tail alone.
  auto idle = ss::ContactDag::fused(ss::ContactTrace{}, 3, 1000);
  ASSERT_EQ(idle.tasks().size(), 1u);
  EXPECT_TRUE(idle.tasks()[0].deps.empty());
  EXPECT_EQ(idle.tasks()[0].strands.size(), 3u);
}

// --- scheduler shards --------------------------------------------------------

TEST(Scheduler, ShardStartsAtGivenTime) {
  ss::Scheduler sched(500.0);
  EXPECT_DOUBLE_EQ(sched.now(), 500.0);
  std::vector<double> fired;
  sched.schedule_at(600.0, [&] { fired.push_back(600.0); });
  sched.schedule_in(50.0, [&] { fired.push_back(550.0); });
  sched.run_until(1000.0);
  EXPECT_EQ(fired, (std::vector<double>{550.0, 600.0}));
  EXPECT_DOUBLE_EQ(sched.now(), 1000.0);
}

// --- engine determinism ------------------------------------------------------

namespace {

/// Small-but-real configs exercising resumption and three schemes.
std::vector<sd::ScenarioConfig> determinism_configs() {
  std::vector<sd::ScenarioConfig> configs;
  {
    sd::ScenarioConfig c = sd::gainesville_config("interest", su::derive_seed(11, 0));
    c.days = 1.5;
    configs.push_back(c);
  }
  {
    sd::ScenarioConfig c = sd::gainesville_config("epidemic", su::derive_seed(11, 1));
    c.nodes = 14;
    c.area_w_m = 2200;
    c.area_h_m = 2200;
    c.days = 1.0;
    c.total_posts_target = 60;
    configs.push_back(c);
    c.seed = su::derive_seed(11, 2);
    configs.push_back(c);
  }
  {
    sd::ScenarioConfig c = sd::gainesville_config("prophet", su::derive_seed(11, 3));
    c.nodes = 12;
    c.area_w_m = 1800;
    c.area_h_m = 1800;
    c.days = 1.0;
    c.total_posts_target = 50;
    configs.push_back(c);
  }
  return configs;
}

}  // namespace

TEST(Replay, MonoAndStrandsBitwiseIdenticalToReferenceAtAnyWorkerCount) {
  for (const sd::ScenarioConfig& config : determinism_configs()) {
    auto world = sd::record_world(config);
    ASSERT_GT(world->trace.size(), 0u);
    auto single = fingerprint(sd::run_scenario(config, world.get()));
    EXPECT_EQ(single, fingerprint(run_mono(config, *world)))
        << config.scheme << " seed " << config.seed << " (mono)";
    for (std::size_t j : {std::size_t{1}, std::size_t{4}}) {
      EXPECT_EQ(single, fingerprint(sd::run_scenario(config, world.get(), {.subepisode_jobs = j})))
          << config.scheme << " seed " << config.seed << " strand jobs " << j;
    }
    // The workload exercised the stack.
    EXPECT_GT(single.posts, 0u);
  }
}

TEST(Replay, RunWithoutWorldRecordsThenReplays) {
  // No world given: run_scenario records one and replays it, so the result
  // is the reference replay of record_world's trace.
  sd::ScenarioConfig config = determinism_configs()[1];
  auto world = sd::record_world(config);
  EXPECT_EQ(fingerprint(sd::run_scenario(config)),
            fingerprint(sd::run_scenario(config, world.get())));
}

TEST(Replay, SchemeSwapOnDetachedNodesReplaysToHorizon) {
  // A ReplaySession's nodes sit detached (no scheduler, no endpoint)
  // between segments; swapping their scheme there must not touch either,
  // and the swapped advertisement must be live from the first shard on:
  // an interest fleet swapped to epidemic replays exactly like an
  // epidemic fleet, on the mono and the strand path.
  sd::ScenarioConfig epidemic = sd::gainesville_config("epidemic", su::derive_seed(13, 0));
  epidemic.nodes = 14;
  epidemic.area_w_m = 2000;
  epidemic.area_h_m = 2000;
  epidemic.days = 1.0;
  epidemic.total_posts_target = 60;
  sd::ScenarioConfig interest = epidemic;
  interest.scheme = "interest";
  auto world = sd::record_world(epidemic);
  const RunFingerprint expected = fingerprint(sd::run_scenario(epidemic, world.get()));
  for (std::size_t j : {std::size_t{0}, std::size_t{2}}) {
    sd::ReplaySession session(interest, *world, {.subepisode_jobs = j});
    for (std::size_t i = 0; i < session.node_count(); ++i) {
      ASSERT_TRUE(session.node(i).set_scheme("epidemic"));
    }
    session.advance_to(session.horizon());
    EXPECT_EQ(expected, fingerprint(session.finish())) << "strand jobs " << j;
  }
  EXPECT_GT(expected.deliveries, 0u);
}

TEST(Replay, SharedVerifyMemoDoesNotChangeMetrics) {
  sd::ScenarioConfig config = sd::gainesville_config("epidemic", su::derive_seed(13, 0));
  config.nodes = 14;
  config.area_w_m = 2000;
  config.area_h_m = 2000;
  config.days = 1.0;
  config.total_posts_target = 60;
  auto world = sd::record_world(config);
  auto with_memo = fingerprint(
      sd::run_scenario(config, world.get(), {.share_verify_memo = true}));
  auto without = fingerprint(
      sd::run_scenario(config, world.get(), {.share_verify_memo = false}));
  EXPECT_EQ(with_memo, without);
  EXPECT_GT(with_memo.deliveries, 0u);
  // The memo must not leak into the per-node counters: every node still
  // records the verifies the real device would perform.
  EXPECT_GT(with_memo.totals.bundle_sig_cache_misses, 0u);
}

namespace {

/// Threads this process runs right now: one /proc/self/task entry each.
std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// A scheme that never connects; it records the most threads alive
/// whenever its node sees a peer, which happens only inside a strand task.
class ThreadCountingScheme : public sm::RoutingScheme {
 public:
  explicit ThreadCountingScheme(std::atomic<std::size_t>& max_threads)
      : max_threads_(max_threads) {}
  std::string name() const override { return "thread-counting"; }
  std::map<sos::pki::UserId, std::uint32_t> advertisement(const sm::RoutingContext&) override {
    return {};
  }
  bool should_connect(const sm::RoutingContext&,
                      const std::map<sos::pki::UserId, std::uint32_t>&) override {
    std::size_t n = live_threads();
    std::size_t seen = max_threads_.load();
    while (n > seen && !max_threads_.compare_exchange_weak(seen, n)) {
    }
    return false;
  }
  sm::RequestPlan plan_requests(const sm::RoutingContext&, const sm::PeerView&) override {
    return {};
  }
  bool may_send(const sm::RoutingContext&, const sos::bundle::Bundle&,
                const sm::PeerView&) override {
    return false;
  }
  bool should_carry(const sm::RoutingContext&, const sos::bundle::Bundle&) override {
    return false;
  }

 private:
  std::atomic<std::size_t>& max_threads_;
};

}  // namespace

TEST(Replay, StrandEngineStartsNoMoreWorkersThanTasks) {
#ifndef __linux__
  GTEST_SKIP() << "counts threads through /proc/self/task";
#endif
  // Eight strand workers asked for, but the segment replayed (up to the
  // first cut whose DAG has two tasks or more) holds fewer tasks: a worker
  // without a task would only park, so the engine must not start it.
  const sd::ScenarioConfig config = determinism_configs()[0];
  auto world = sd::record_world(config);
  constexpr std::size_t kJobs = 8;
  sd::ReplaySession session(config, *world, {.subepisode_jobs = kJobs});
  double cut = -1;
  std::size_t tasks = 0;
  for (double t : session.quiescent_cuts(3600.0)) {
    ss::ContactTrace seg;
    for (const ss::ContactInterval& c : world->trace.contacts())
      if (c.end <= t) seg.add(c);
    tasks = ss::ContactDag::partition(seg, config.nodes, t).tasks().size();
    if (tasks >= 2) {
      cut = t;
      break;
    }
  }
  ASSERT_GT(cut, 0.0);
  ASSERT_LT(tasks, kJobs);
  std::atomic<std::size_t> max_threads{0};
  for (std::size_t i = 0; i < session.node_count(); ++i)
    session.node(i).set_scheme(std::make_unique<ThreadCountingScheme>(max_threads));
  // Threads the process runs before the replay: this one, plus any a
  // sanitizer runtime keeps. ThreadSanitizer starts its own on the first
  // thread creation, so create one first. The engine may then add one
  // helper per task beyond the first.
  std::thread([] {}).join();
  const std::size_t before = live_threads();
  session.advance_to(cut);
  ASSERT_GT(max_threads.load(), 0u);  // a browse decision ran inside a task
  EXPECT_LE(max_threads.load(), before + tasks - 1)
      << "a " << tasks << "-task segment at " << kJobs << " jobs";
}

// --- randomized multi-community determinism harness --------------------------

namespace {

/// The structural invariants every strand partition must satisfy, checked
/// on arbitrary sampled traces: complete coverage (each contact in exactly
/// one task), strands that hull their node's contacts, strictly disjoint
/// per-node strand windows (touching contacts fuse, so the engine's detach
/// point always precedes the next attach with a real gap), a direct chain
/// dep between each node's consecutive tasks (per-node chaining is the
/// DAG's *entire* ordering, so its completeness is the determinism
/// argument), tail coverage, and a width that matches a brute-force count
/// of concurrently open task spans.
void check_contactdag_invariants(const ss::ContactTrace& trace, const ss::ContactDag& dag,
                                 std::size_t nodes, double horizon) {
  const auto& tasks = dag.tasks();
  ASSERT_EQ(tasks.size(), dag.contact_task_count() + 1);

  std::set<std::size_t> seen;
  for (std::size_t ti = 0; ti < dag.contact_task_count(); ++ti) {
    for (std::size_t ci : tasks[ti].contacts) {
      EXPECT_TRUE(seen.insert(ci).second) << "contact " << ci << " in two tasks";
      const auto& c = trace.contacts()[ci];
      for (std::uint32_t endpoint : {c.a, c.b}) {
        auto it = std::find_if(
            tasks[ti].strands.begin(), tasks[ti].strands.end(),
            [&](const ss::ContactStrand& s) { return s.node == endpoint; });
        ASSERT_NE(it, tasks[ti].strands.end())
            << "task " << ti << " misses a strand for node " << endpoint;
        EXPECT_LE(it->first_start, c.start);
        EXPECT_GE(it->last_end, c.end);
      }
    }
  }
  EXPECT_EQ(seen.size(), trace.size());

  const ss::ContactTask& tail = tasks.back();
  EXPECT_TRUE(tail.contacts.empty());
  EXPECT_EQ(tail.strands.size(), nodes);
  EXPECT_DOUBLE_EQ(tail.last_end, horizon);

  // Per node: strand windows across tasks, in time order, are strictly
  // disjoint, and every consecutive pair is joined by a direct chain dep
  // (the tail follows the node's last contact task).
  for (std::uint32_t node = 0; node < nodes; ++node) {
    std::vector<std::pair<std::pair<double, double>, std::size_t>> windows;
    for (std::size_t ti = 0; ti < dag.contact_task_count(); ++ti) {
      for (const ss::ContactStrand& s : tasks[ti].strands) {
        if (s.node == node) windows.push_back({{s.first_start, s.last_end}, ti});
      }
    }
    std::sort(windows.begin(), windows.end());
    for (std::size_t i = 1; i < windows.size(); ++i) {
      EXPECT_GT(windows[i].first.first, windows[i - 1].first.second)
          << "node " << node << " strand " << i << " not strictly after the previous";
      const auto& deps = tasks[windows[i].second].deps;
      EXPECT_TRUE(std::find(deps.begin(), deps.end(), windows[i - 1].second) != deps.end())
          << "node " << node << ": task " << windows[i].second
          << " missing its chain dep on task " << windows[i - 1].second;
    }
    if (!windows.empty()) {
      EXPECT_TRUE(std::find(tail.deps.begin(), tail.deps.end(), windows.back().second) !=
                  tail.deps.end())
          << "tail missing its chain dep for node " << node;
    }
  }

  // width() == max concurrently open task spans, brute-forced at every task
  // start (each open task has a contact open or pending at that instant, so
  // this is the measured-concurrent-contacts bound of the hotspot cells).
  std::size_t brute = 0;
  for (std::size_t i = 0; i < dag.contact_task_count(); ++i) {
    const double t = tasks[i].first_start;
    std::size_t open = 0;
    for (std::size_t j = 0; j < dag.contact_task_count(); ++j) {
      if (tasks[j].first_start <= t && tasks[j].last_end > t) ++open;
    }
    brute = std::max(brute, open);
  }
  EXPECT_EQ(dag.width(), brute);
}

}  // namespace

TEST(RandomizedDeterminism, MultiCommunityWorldsAreBitwiseIdenticalAcrossEngines) {
  // ~50 random worlds across the community knob space (1-4 communities,
  // 0-30% bridge commuters, mixed schemes/windows, seeds via derive_seed):
  // every sampled trace must satisfy the strand partition invariants, and
  // the mono session and strand replay at every worker count must be
  // bitwise identical to the single-scheduler reference. This is the pin
  // that lets the community mobility subsystem ride the parallel engine
  // without a determinism leap of faith.
  const std::vector<std::size_t> strand_jobs = {1, 2, 4};
  const char* schemes[] = {"interest", "epidemic", "prophet"};
  const int kWorlds = 50;
  std::size_t total_contacts = 0, total_posts = 0, total_deliveries = 0;
  for (int w = 0; w < kWorlds; ++w) {
    const std::uint64_t seed = su::derive_seed(0xC0117EC7, static_cast<std::uint64_t>(w));
    su::Rng pick(seed);
    sd::ScenarioConfig config = sd::gainesville_config(schemes[w % 3], seed);
    config.nodes = 8 + pick.below(9);                        // 8..16
    config.communities = 1 + pick.below(4);                  // 1..4
    config.bridge_node_frac = pick.uniform(0.0, 0.3);
    config.mobility.home_min_separation_m = pick.chance(0.5) ? 150.0 : 0.0;
    config.area_w_m = 1200.0 + pick.uniform(0.0, 1800.0);
    config.area_h_m = 1200.0 + pick.uniform(0.0, 1800.0);
    // 1.5 days: evening posts meet the next morning's encounters, so
    // deliveries (and their middleware state) routinely cross the day
    // boundary — the task-handoff case the engine exists for.
    config.days = 1.5;
    config.total_posts_target = 4.0 * static_cast<double>(config.nodes);

    auto world = sd::record_world(config);
    auto dag =
        ss::ContactDag::partition(world->trace, config.nodes, su::days(config.days));
    check_contactdag_invariants(world->trace, dag, config.nodes, su::days(config.days));

    const RunFingerprint single = fingerprint(sd::run_scenario(config, world.get()));
    EXPECT_EQ(single, fingerprint(run_mono(config, *world)))
        << "world " << w << " (" << config.scheme << ", " << config.communities
        << " communities, seed " << config.seed << ") diverged on the mono session";
    for (std::size_t j : strand_jobs) {
      const RunFingerprint strands =
          fingerprint(sd::run_scenario(config, world.get(), {.subepisode_jobs = j}));
      EXPECT_EQ(single, strands)
          << "world " << w << " (" << config.scheme << ", " << config.communities
          << " communities, seed " << config.seed
          << ") diverged on the strand engine at jobs " << j;
    }
    total_contacts += world->trace.size();
    total_posts += single.posts;
    total_deliveries += single.deliveries;
  }
  // The sampled population exercised the full stack, not 50 empty worlds.
  EXPECT_GT(total_contacts, 500u);
  EXPECT_GT(total_posts, 200u);
  EXPECT_GT(total_deliveries, 50u);
}

TEST(RandomizedDeterminism, CommunityDensityCellReachesParallelismCeiling) {
  // The acceptance bar for the community-structured ablation cell: its
  // recorded trace must decompose to a strand parallelism ceiling of at
  // least 2, so strand workers have real concurrency to exploit on
  // multi-core hosts.
  auto grid = sd::density_ablation_grid(3.0);
  sd::SweepRunner runner{sd::SweepOptions{}};
  std::size_t idx = grid.size();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].label == "48n-4c") idx = i;
  }
  ASSERT_LT(idx, grid.size()) << "community cell missing from density_ablation_grid";
  sd::ScenarioConfig config = runner.cell_config(grid[idx], idx);
  EXPECT_EQ(config.communities, 4u);
  auto world = sd::record_world(config);
  auto dag = ss::ContactDag::partition(world->trace, config.nodes, su::days(config.days));
  check_contactdag_invariants(world->trace, dag, config.nodes, su::days(config.days));
  EXPECT_GE(dag.parallelism(), 2.0);
  EXPECT_GT(dag.contact_task_count(), 8u);
  EXPECT_GE(dag.width(), 2u);
}

// --- cross-segment state handoff --------------------------------------------

TEST(StrandReplay, BundleRelaysAcrossTaskBoundary) {
  // Hand-built world: node 0 meets node 1 in the evening (task k), node 1
  // meets node 2 an hour later (task k+1), node 2 follows node 0, and
  // epidemic routing makes node 1 carry. Any delivery to node 2 proves the
  // bundle store survived the detach/attach seam between shards.
  sd::ScenarioConfig config = sd::gainesville_config("epidemic", 99);
  config.nodes = 3;
  config.days = 1.0;
  config.total_posts_target = 45.0;  // ~15 posts by node 0 in the window
  sg::Digraph social(3);
  social.add_edge(2, 0);  // node 2 follows node 0
  config.social = social;

  // Posting window is 18.5h-23.5h (66600..84600 s). Contacts after the
  // first posts: (0,1) at 70000..70600, (1,2) at 75000..75600. No (0,2)
  // contact ever: delivery requires the cross-task relay through 1.
  std::vector<ss::Trajectory> parked(3);
  for (std::size_t i = 0; i < 3; ++i)
    parked[i].add(0.0, {100.0 * static_cast<double>(i), 0.0});
  sd::ScenarioWorld world{ss::TrajectoryMobility(std::move(parked)),
                          ss::ContactTrace{}};
  ASSERT_TRUE(world.trace.add({70000, 70600, 0, 1}));
  ASSERT_TRUE(world.trace.add({75000, 75600, 1, 2}));

  auto dag = ss::ContactDag::partition(world.trace, 3, su::days(1.0));
  ASSERT_EQ(dag.contact_task_count(), 2u);  // the relay crosses a seam
  EXPECT_EQ(dag.tasks()[1].deps, (std::vector<std::size_t>{0}));
  const ss::ContactTask& pickup = dag.tasks()[0];
  const ss::ContactTask& drop = dag.tasks()[1];

  auto single = sd::run_scenario(config, &world);
  auto strands = sd::run_scenario(config, &world, {.subepisode_jobs = 2});
  EXPECT_EQ(fingerprint(single), fingerprint(strands));
  EXPECT_GT(strands.totals.bundles_carried, strands.totals.deliveries);
  // The bundle made it: every delivery happened inside the second task,
  // and each delivered bundle was picked up (carried) inside the first.
  ASSERT_GT(strands.oracle.delivery_count(), 0u);
  for (const sd::DeliveryRecord& d : strands.oracle.deliveries()) {
    EXPECT_GE(d.at, drop.first_start);
    EXPECT_LE(d.at, drop.last_end);
    bool picked_up = false;
    for (const sd::CarryRecord& c : strands.oracle.carries()) {
      picked_up |= c.id == d.id && c.at >= pickup.first_start && c.at <= pickup.last_end;
    }
    EXPECT_TRUE(picked_up) << "delivery at " << d.at << " without a pickup in task 0";
  }
}

TEST(StrandReplay, BundleRelaysAcrossThreeStrandsUnderOneAnchorContact) {
  // An "anchor" contact (0,6) spans the whole evening, so the relay chain
  // 0 -> 1 -> 2 -> 3 nests inside one contact's span — the dense-hotspot
  // shape. ContactDag keeps the three relay hops as separate tasks chained
  // through nodes 1 and 2 (fusion keys on per-node hulls, not spans), so a
  // bundle posted by node 0 must cross two detach/attach seams under the
  // anchor's span to reach its subscriber on node 3.
  sd::ScenarioConfig config = sd::gainesville_config("epidemic", 99);
  config.nodes = 7;
  config.days = 1.0;
  config.total_posts_target = 140.0;  // ~20 posts by node 0 in the window
  sg::Digraph social(7);
  social.add_edge(3, 0);  // node 3 follows node 0
  config.social = social;

  // Posting window is 18.5h-23.5h (66600..84600 s); the relay contacts sit
  // inside it. No (0,3) contact ever: delivery requires both hops.
  std::vector<ss::Trajectory> parked(7);
  for (std::size_t i = 0; i < 7; ++i)
    parked[i].add(0.0, {100.0 * static_cast<double>(i), 0.0});
  sd::ScenarioWorld world{ss::TrajectoryMobility(std::move(parked)),
                          ss::ContactTrace{}};
  ASSERT_TRUE(world.trace.add({70000, 70600, 0, 1}));
  ASSERT_TRUE(world.trace.add({70300, 76000, 0, 6}));  // the anchor
  ASSERT_TRUE(world.trace.add({72000, 72600, 1, 2}));
  ASSERT_TRUE(world.trace.add({74400, 75000, 2, 3}));

  auto dag = ss::ContactDag::partition(world.trace, 7, su::days(1.0));
  check_contactdag_invariants(world.trace, dag, 7, su::days(1.0));
  ASSERT_EQ(dag.contact_task_count(), 3u);
  EXPECT_EQ(dag.tasks()[0].contacts, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(dag.tasks()[1].deps, (std::vector<std::size_t>{0}));  // via node 1
  EXPECT_EQ(dag.tasks()[2].deps, (std::vector<std::size_t>{1}));  // via node 2
  EXPECT_EQ(dag.width(), 2u);  // hops nest inside the anchor task's span

  auto single = sd::run_scenario(config, &world);
  EXPECT_GT(single.oracle.delivery_count(), 0u);
  for (std::size_t j : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    auto strands = sd::run_scenario(config, &world, {.subepisode_jobs = j});
    EXPECT_EQ(fingerprint(single), fingerprint(strands)) << "strand jobs " << j;
    EXPECT_GT(strands.oracle.delivery_count(), 0u);
  }
}
