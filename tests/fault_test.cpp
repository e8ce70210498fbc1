// Fault-injection suite (`ctest -L fault`): the disaster-realism layer —
// lossy links, churn, partitions, adversaries — must keep every sweep
// metric a pure function of (seed, grid): bitwise identical at any sweep
// --jobs count and across the single-scheduler reference and the strand
// replay engine. Also pins the adversarial crypto
// paths (forged-signature storms vs the shared VerifyMemo, grayhole
// accounting, reboot resume semantics) and the fault-grid validator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/verify_memo.hpp"
#include "deploy/sweep.hpp"
#include "mw/sos_node.hpp"
#include "pki/bootstrap.hpp"
#include "sim/faults.hpp"
#include "sim/multipeer.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "run_fingerprint.hpp"

namespace sb = sos::bundle;
namespace sc = sos::crypto;
namespace sd = sos::deploy;
namespace sm = sos::mw;
namespace sp = sos::pki;
namespace ss = sos::sim;
namespace su = sos::util;

namespace {

// --- FaultPlan units --------------------------------------------------------

ss::ContactTrace one_contact(double start, double end, std::uint32_t a, std::uint32_t b) {
  ss::ContactTrace t;
  t.add({start, end, a, b});
  return t;
}

TEST(FaultPlanApply, ChurnWindowSplitsContact) {
  ss::FaultPlanConfig cfg;
  cfg.churn.push_back({1, 100.0, 200.0, true, false});
  ss::FaultPlan plan(cfg, 7, 4);
  ss::ContactTrace out = plan.apply(one_contact(50.0, 300.0, 0, 1));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out.contacts()[0].start, 50.0);
  EXPECT_DOUBLE_EQ(out.contacts()[0].end, 100.0);
  EXPECT_DOUBLE_EQ(out.contacts()[1].start, 200.0);
  EXPECT_DOUBLE_EQ(out.contacts()[1].end, 300.0);
  // A contact between two other nodes is untouched.
  EXPECT_EQ(plan.apply(one_contact(50.0, 300.0, 2, 3)).size(), 1u);
}

TEST(FaultPlanApply, PartitionBlocksCrossGroupContactsOnly) {
  ss::FaultPlanConfig cfg;
  cfg.partitions.push_back({{0.0, 1000.0}, 2});
  ss::FaultPlan plan(cfg, 7, 4);
  // 0 and 1 are in different groups (node id mod 2): fully blocked.
  EXPECT_EQ(plan.apply(one_contact(10.0, 20.0, 0, 1)).size(), 0u);
  // 0 and 2 share a group: untouched.
  EXPECT_EQ(plan.apply(one_contact(10.0, 20.0, 0, 2)).size(), 1u);
}

TEST(FaultPlanApply, DisconnectWindowClipsEveryLink) {
  ss::FaultPlanConfig cfg;
  cfg.link.disconnects = {{100.0, 150.0}};
  ss::FaultPlan plan(cfg, 7, 4);
  ss::ContactTrace out = plan.apply(one_contact(90.0, 160.0, 2, 3));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out.contacts()[0].end, 100.0);
  EXPECT_DOUBLE_EQ(out.contacts()[1].start, 150.0);
  // A contact fully inside the dead window vanishes; fragments are never
  // zero-length.
  EXPECT_EQ(plan.apply(one_contact(110.0, 140.0, 2, 3)).size(), 0u);
  EXPECT_EQ(plan.apply(one_contact(100.0, 150.0, 2, 3)).size(), 0u);
}

TEST(FaultPlanFrameFault, DeterministicInArgumentsAlone) {
  ss::FaultPlanConfig cfg;
  cfg.link.loss_p = 0.5;
  cfg.link.jitter_max_s = 0.1;
  ss::FaultPlan a(cfg, 99, 8);
  ss::FaultPlan b(cfg, 99, 8);  // separate instance, same seed
  for (std::uint64_t seq = 0; seq < 32; ++seq) {
    ss::FrameFault fa = a.frame_fault(2, 5, 1234.5, seq);
    ss::FrameFault fb = b.frame_fault(2, 5, 1234.5, seq);
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_DOUBLE_EQ(fa.extra_busy_s, fb.extra_busy_s);
  }
  // A different seed decorrelates the stream.
  ss::FaultPlan c(cfg, 100, 8);
  bool any_diff = false;
  for (std::uint64_t seq = 0; seq < 32 && !any_diff; ++seq) {
    any_diff = a.frame_fault(2, 5, 1234.5, seq).drop != c.frame_fault(2, 5, 1234.5, seq).drop;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlanFrameFault, AsymmetricLossRespectsDirection) {
  ss::FaultPlanConfig cfg;
  cfg.link.loss_p = 0.0;        // forward (low id -> high id) never drops
  cfg.link.loss_p_reverse = 1.0;  // reverse always drops
  ss::FaultPlan plan(cfg, 5, 8);
  for (std::uint64_t seq = 0; seq < 16; ++seq) {
    EXPECT_FALSE(plan.frame_fault(1, 6, 100.0, seq).drop);
    EXPECT_TRUE(plan.frame_fault(6, 1, 100.0, seq).drop);
  }
}

TEST(FaultPlanFrameFault, JitterSpikeWindowsElevateJitter) {
  ss::FaultPlanConfig cfg;
  cfg.link.jitter_max_s = 0.01;
  cfg.link.jitter_spikes = {{1000.0, 2000.0}};
  cfg.link.jitter_spike_max_s = 5.0;
  ss::FaultPlan plan(cfg, 5, 8);
  double calm_max = 0, spike_max = 0;
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    calm_max = std::max(calm_max, plan.frame_fault(0, 1, 500.0, seq).extra_busy_s);
    spike_max = std::max(spike_max, plan.frame_fault(0, 1, 1500.0, seq).extra_busy_s);
  }
  EXPECT_LE(calm_max, 0.01);
  EXPECT_GT(spike_max, 0.01);
}

TEST(FaultPlanRoles, DeterministicAndRespectingFractions) {
  ss::FaultPlanConfig cfg;
  cfg.adversaries.flooder_frac = 0.25;
  cfg.adversaries.blackhole_frac = 0.25;
  ss::FaultPlan a(cfg, 11, 200);
  ss::FaultPlan b(cfg, 11, 200);
  std::size_t flooders = 0, blackholes = 0, honest = 0;
  for (std::uint32_t n = 0; n < 200; ++n) {
    EXPECT_EQ(a.role(n), b.role(n));
    if (a.role(n) == ss::AdversaryRole::Flooder) ++flooders;
    if (a.role(n) == ss::AdversaryRole::Blackhole) ++blackholes;
    if (a.role(n) == ss::AdversaryRole::Honest) ++honest;
  }
  // One uniform per node against cumulative thresholds: expect ~50/50/100.
  EXPECT_GT(flooders, 25u);
  EXPECT_GT(blackholes, 25u);
  EXPECT_GT(honest, 60u);
  EXPECT_EQ(flooders + blackholes + honest, 200u);
}

TEST(FaultPlanFloodTimes, OnlyAdversariesFloodAndDownWindowsFilter) {
  ss::FaultPlanConfig cfg;
  cfg.adversaries.forger_frac = 1.0 - 1e-9;  // everyone forges
  cfg.adversaries.flood_posts_per_hour = 60.0;
  ss::FaultPlan plan(cfg, 3, 4);
  auto times = plan.flood_times(2, 3600.0);
  EXPECT_GT(times.size(), 20u);  // ~60 expected
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_LT(times[i], 3600.0);
    if (i > 0) {
      EXPECT_GE(times[i], times[i - 1]);
    }
  }
  // Honest nodes never flood.
  ss::FaultPlan honest(ss::FaultPlanConfig{}, 3, 4);
  EXPECT_TRUE(honest.flood_times(2, 3600.0).empty());
  // A down-window filters the times inside it but leaves the rest of the
  // schedule unperturbed (draws are consumed regardless of churn).
  ss::FaultPlanConfig churned = cfg;
  churned.churn.push_back({2, 1000.0, 2000.0, true, false});
  ss::FaultPlan plan2(churned, 3, 4);
  auto times2 = plan2.flood_times(2, 3600.0);
  std::vector<su::SimTime> expected;
  for (double t : times)
    if (t < 1000.0 || t >= 2000.0) expected.push_back(t);
  EXPECT_EQ(times2, expected);
}

// --- validator --------------------------------------------------------------

TEST(FaultValidate, AcceptsSanePlanAndDefaultPlan) {
  EXPECT_TRUE(ss::FaultPlanConfig{}.validate(86400.0, 10).empty());
  for (const auto& cell : sd::disaster_pack_grid(2.0)) {
    EXPECT_TRUE(cell.config.faults.validate(su::days(2.0), cell.config.nodes).empty())
        << cell.label;
  }
}

TEST(FaultValidate, RejectsEveryInsanity) {
  const double horizon = 1000.0;
  auto expect_reject = [&](const ss::FaultPlanConfig& cfg, const std::string& needle) {
    auto problems = cfg.validate(horizon, 10);
    ASSERT_FALSE(problems.empty()) << "expected rejection mentioning: " << needle;
    bool found = false;
    for (const auto& p : problems) found = found || p.find(needle) != std::string::npos;
    EXPECT_TRUE(found) << "no problem mentions '" << needle << "'; got: " << problems[0];
  };

  ss::FaultPlanConfig cfg;
  cfg.link.loss_p = 1.5;
  expect_reject(cfg, "loss_p");

  cfg = {};
  cfg.link.loss_p_reverse = 2.0;
  expect_reject(cfg, "loss_p_reverse");

  cfg = {};
  cfg.link.jitter_max_s = -1.0;
  expect_reject(cfg, "jitter_max_s");

  cfg = {};
  cfg.link.disconnects = {{500.0, 2000.0}};  // past the horizon
  expect_reject(cfg, "outside the horizon");

  cfg = {};
  cfg.link.jitter_spikes = {{300.0, 100.0}};  // inverted
  cfg.link.jitter_spike_max_s = 1.0;
  expect_reject(cfg, "inverted");

  cfg = {};
  cfg.churn = {{3, 100.0, 400.0, true, false}, {3, 300.0, 600.0, true, false}};
  expect_reject(cfg, "overlapping churn");

  cfg = {};
  cfg.churn = {{99, 100.0, 200.0, true, false}};  // nonexistent node
  expect_reject(cfg, "names node 99");

  cfg = {};
  cfg.churn = {{2, 400.0, 100.0, true, false}};
  expect_reject(cfg, "churn window inverted");

  cfg = {};
  cfg.partitions = {{{100.0, 200.0}, 1}};
  expect_reject(cfg, "partitions nothing");

  cfg = {};
  cfg.adversaries.flooder_frac = 0.6;
  cfg.adversaries.blackhole_frac = 0.6;  // sums to 1.2
  expect_reject(cfg, ">= 1");

  cfg = {};
  cfg.adversaries.grayhole_frac = 0.2;
  cfg.adversaries.grayhole_forward_p = -0.5;
  expect_reject(cfg, "grayhole_forward_p");
}

TEST(FaultValidate, SweepRunnerRejectsInsaneGridUpFront) {
  auto grid = sd::disaster_pack_grid(1.0);
  grid[1].config.faults.adversaries.flooder_frac = 0.7;
  grid[1].config.faults.adversaries.forger_frac = 0.7;
  grid[3].config.faults.churn.push_back({999, 0.0, 100.0, true, false});
  sd::SweepOptions opts;
  opts.jobs = 1;
  try {
    sd::SweepRunner(opts).run(grid);
    FAIL() << "insane grid must throw before running any cell";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find(">= 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("names node 999"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cell 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cell 3"), std::string::npos) << msg;
  }
}

// --- engine/thread-count determinism ---------------------------------------

/// Trimmed disaster grid: every fault family, one signed + one unsigned
/// variant, short horizon — small enough for ctest, real enough to exercise
/// churn reboots, partition healing, frame drops, and forged storms.
std::vector<sd::SweepCell> fault_grid() {
  auto grid = sd::disaster_pack_grid(1.0);
  // Keep storm, churn, quake, blackhole, sigstorm; drop calm and lossy
  // (calm is the plain-sweep suite's job; lossy is storm minus the spikes).
  grid.erase(grid.begin(), grid.begin() + 2);
  return grid;
}

std::vector<sd::CellResult> run_fault_grid(std::size_t jobs) {
  sd::SweepOptions opts;
  opts.jobs = jobs;
  return sd::SweepRunner(opts).run(fault_grid());
}

TEST(FaultSweep, BitwiseIdenticalAcrossJobsAndEngines) {
  // A serial sweep against a 4-worker sweep pins the thread-count axis, and
  // a 2-worker strand replay of every (cell, variant) over the same world
  // pins the engine axis, for every fault family.
  auto serial = run_fault_grid(1);
  auto parallel = run_fault_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  std::shared_ptr<const sd::ScenarioWorld> world;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const sd::CellResult& r = serial[i];
    EXPECT_EQ(r.label, parallel[i].label);
    EXPECT_EQ(fingerprint(r.result), fingerprint(parallel[i].result))
        << "cell/variant " << r.label;
    if (r.variant == 0) world = sd::record_world(r.config);
    EXPECT_EQ(fingerprint(r.result),
              fingerprint(sd::run_scenario(r.config, world.get(), {.subepisode_jobs = 2})))
        << "strand engine, cell/variant " << r.label;
  }
  // The faults actually bit: churn rebooted phones, adversaries/loss
  // dropped frames, and the grid still delivered something.
  std::uint64_t reboots = 0, dropped = 0, delivered = 0, rejected = 0;
  for (const auto& r : serial) {
    reboots += r.result.totals.reboots;
    dropped += r.result.frames_dropped_fault;
    delivered += r.result.oracle.delivered_of_posted();
    rejected += r.result.totals.bundle_sig_rejected;
  }
  EXPECT_GT(reboots, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(rejected, 0u);  // the signed sigstorm variant rejected forgeries
}

// --- adversarial crypto paths ----------------------------------------------

TEST(FaultAdversary, ForgedSignaturesNeverMemoizeTrue) {
  // The sweep-wide VerifyMemo stores verdicts, not approvals: a forged
  // signature memoizes `false`, and a second consult returns that same
  // rejection rather than an acceptance.
  auto kp = sc::Ed25519Keypair::from_seed(sc::EdSeed{1, 2, 3});
  auto msg = su::to_bytes("sos post");
  sc::EdSignature sig = kp.sign(msg);
  sc::EdSignature forged = sig;
  forged[0] ^= 0x5a;

  sc::VerifyMemo memo;
  EXPECT_FALSE(memo.verify(kp.public_key(), msg, forged));
  auto key = sc::VerifyMemo::key_of(kp.public_key(), msg, forged);
  auto verdict = memo.lookup(key);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_FALSE(*verdict);
  EXPECT_FALSE(memo.verify(kp.public_key(), msg, forged));  // memoized reject
  // The honest signature memoizes true independently.
  EXPECT_TRUE(memo.verify(kp.public_key(), msg, sig));
  EXPECT_FALSE(memo.verify(kp.public_key(), msg, forged));
}

TEST(FaultAdversary, SigstormRejectionsSurviveSharedMemoReplays) {
  // Replay the signed sigstorm cell twice against one shared memo (the
  // sweep-wide scope). If a forged verdict ever memoized true, the second
  // replay would accept junk the first rejected and the metrics would
  // diverge.
  auto grid = sd::disaster_pack_grid(1.0);
  auto it = std::find_if(grid.begin(), grid.end(),
                         [](const sd::SweepCell& c) { return c.label == "sigstorm"; });
  ASSERT_NE(it, grid.end());
  sd::SweepCell cell = *it;
  sd::ScenarioConfig config = cell.config;
  config.scheme = "epidemic";
  config.seed = su::derive_seed(42, 6);
  auto world = sd::record_world(config);

  sc::VerifyMemo memo;
  sd::ReplayOptions replay;
  replay.memo = &memo;
  auto first = sd::run_scenario(config, world.get(), replay);
  auto second = sd::run_scenario(config, world.get(), replay);
  EXPECT_GT(first.totals.bundle_sig_rejected, 0u);
  EXPECT_EQ(fingerprint(first), fingerprint(second));
}

TEST(FaultAdversary, GrayholeDropsAreLossNotDeliveries) {
  sd::SweepCell cell = sd::disaster_pack_grid(1.0)[0];  // calm
  sd::ScenarioConfig calm = cell.config;
  calm.scheme = "epidemic";
  calm.seed = su::derive_seed(42, 0);
  sd::ScenarioConfig gray = calm;
  gray.faults.adversaries.grayhole_frac = 0.4;
  gray.faults.adversaries.grayhole_forward_p = 0.3;

  auto world = sd::record_world(calm);  // adversaries don't reshape the world
  auto calm_r = sd::run_scenario(calm, world.get());
  auto gray_r = sd::run_scenario(gray, world.get());

  EXPECT_GT(gray_r.frames_dropped_fault, 0u);
  // Dropped frames stay out of deliveries and out of the wire-delivery
  // ledger: what the grayhole ate shows up as loss, not as data.
  EXPECT_LT(gray_r.oracle.delivery_count(), calm_r.oracle.delivery_count());
  EXPECT_LE(gray_r.frames_dropped_fault, gray_r.wire_frames);
  // Same recorded world: the contact structure is identical.
  EXPECT_EQ(gray_r.contacts, calm_r.contacts);
}

// --- churn reboot semantics --------------------------------------------------

namespace {
/// Two signed-up users on a shared radio; ranges driven manually.
struct Pair {
  ss::Scheduler sched;
  sp::BootstrapService infra{su::to_bytes("fault-testbed")};
  ss::MpcNetwork net{sched, 2};
  std::vector<std::unique_ptr<sm::SosNode>> nodes;

  Pair() {
    for (std::size_t i = 0; i < 2; ++i) {
      sc::Drbg device(su::to_bytes("device-" + std::to_string(i)));
      auto creds = infra.signup("user" + std::to_string(i), device, sched.now());
      sm::SosConfig config;
      config.maintenance_interval_s = 0;
      nodes.push_back(std::make_unique<sm::SosNode>(
          sched, net.endpoint(static_cast<ss::PeerId>(i)), std::move(*creds), config));
      nodes.back()->start();
    }
    sched.run_all();
  }
  void meet() {
    net.set_in_range(0, 1, true);
    sched.run_all();
  }
  void part() {
    net.set_in_range(0, 1, false);
    sched.run_all();
  }
  std::uint64_t total_full_handshakes() const {
    return nodes[0]->stats().full_handshakes + nodes[1]->stats().full_handshakes;
  }
  std::uint64_t total_resumes() const {
    return nodes[0]->stats().sessions_resumed + nodes[1]->stats().sessions_resumed;
  }
};
}  // namespace

TEST(FaultChurn, RebootKeepsResumeOnlyIfCacheSurvived) {
  // Interest routing only spends a connection when something new is
  // advertised, so each contact gets a fresh post to pull.
  // Counters below are summed over both endpoints: one full handshake (or
  // resume) shows up once on each side, so a completed pairing counts 2.
  Pair bed;
  bed.nodes[1]->follow(bed.nodes[0]->user_id());
  bed.nodes[0]->publish(su::to_bytes("m1"));
  bed.meet();
  EXPECT_EQ(bed.total_full_handshakes(), 2u);
  EXPECT_EQ(bed.total_resumes(), 0u);
  bed.part();

  // Crash-reboot: RAM gone, flash (store + resume state) intact. The next
  // contact must resume, not pay a second certificate exchange.
  bed.nodes[1]->reboot(/*lose_store=*/false, /*lose_resume_cache=*/false);
  EXPECT_EQ(bed.nodes[1]->stats().reboots, 1u);
  bed.nodes[0]->publish(su::to_bytes("m2"));
  bed.meet();
  EXPECT_EQ(bed.total_full_handshakes(), 2u);
  EXPECT_GT(bed.total_resumes(), 0u);
  bed.part();

  // Flash-wiping reboot: the resume secrets are gone, so the next contact
  // pays a full handshake again — resuming against a wiped cache must
  // fail closed, not ride a stale secret.
  const std::uint64_t resumes_before_wipe = bed.total_resumes();
  bed.nodes[1]->reboot(/*lose_store=*/true, /*lose_resume_cache=*/true);
  bed.nodes[0]->publish(su::to_bytes("m3"));
  bed.meet();
  EXPECT_EQ(bed.total_full_handshakes(), 4u);
  EXPECT_EQ(bed.total_resumes(), resumes_before_wipe);
}

TEST(FaultChurn, RebootWithStoreLossRereceivesOldPosts) {
  Pair bed;
  std::size_t received = 0;
  bed.nodes[1]->on_data = [&](const sb::Bundle&, const sp::Certificate&) { ++received; };
  bed.nodes[1]->follow(bed.nodes[0]->user_id());
  bed.nodes[0]->publish(su::to_bytes("the post"));
  bed.meet();
  EXPECT_EQ(received, 1u);
  bed.part();

  // Store survives a crash reboot: nothing new to transfer on re-contact.
  bed.nodes[1]->reboot(false, false);
  bed.meet();
  EXPECT_EQ(received, 1u);
  bed.part();

  // Store lost: the post is new again and re-transfers.
  bed.nodes[1]->reboot(true, false);
  bed.meet();
  EXPECT_EQ(received, 2u);
}

// --- satellite: cross-cell memo redundancy measurement ------------------------

TEST(FaultMemo, CrossCellMemoRedundancyIsNegligible) {
  // Each sweep cell runs its own BootstrapService CA keyed by the cell's
  // derived seed, so two cells share no certificates and no bundle
  // signatures — a sweep-wide (cross-cell) memo would deduplicate nothing.
  // Measure it: redundancy = (sum of per-cell memo sizes) - (one memo fed
  // by both cells). The recorded number backs the README/ROADMAP note that
  // a cross-cell memo scope is not worth building.
  auto grid = sd::disaster_pack_grid(1.0);
  sd::ScenarioConfig a = grid[0].config;  // calm
  a.scheme = "epidemic";
  a.seed = su::derive_seed(42, 0);
  sd::ScenarioConfig b = a;
  b.seed = su::derive_seed(42, 1);

  auto world_a = sd::record_world(a);
  auto world_b = sd::record_world(b);

  sc::VerifyMemo memo_a, memo_b, shared;
  sd::ReplayOptions ra, rb, rs;
  ra.memo = &memo_a;
  rb.memo = &memo_b;
  rs.memo = &shared;
  sd::run_scenario(a, world_a.get(), ra);
  sd::run_scenario(b, world_b.get(), rb);
  sd::run_scenario(a, world_a.get(), rs);
  sd::run_scenario(b, world_b.get(), rs);

  std::size_t per_cell_sum = memo_a.size() + memo_b.size();
  ASSERT_GT(per_cell_sum, 0u);
  std::size_t redundancy = per_cell_sum - shared.size();
  std::printf("[cross-cell memo] cellA=%zu cellB=%zu shared=%zu redundant=%zu (%.2f%%)\n",
              memo_a.size(), memo_b.size(), shared.size(), redundancy,
              100.0 * static_cast<double>(redundancy) / static_cast<double>(per_cell_sum));
  // Different CAs, different signatures: effectively zero overlap.
  EXPECT_LE(redundancy, per_cell_sum / 100);
}

}  // namespace
