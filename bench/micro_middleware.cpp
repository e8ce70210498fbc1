// Middleware microbenchmarks: the per-encounter costs — the Fig 2a signup
// flow, the session handshake over the simulated radio, end-to-end bundle
// verification, store queries, and wire codec round trips — plus the
// session-churn cell and the soak checkpoint round trip. Whole replay cells
// are measured by sosbench/ (repetitions, noise bounds); the disaster pack's
// table comes from bench_disaster_pack.
#include <benchmark/benchmark.h>

#include "bundle/store.hpp"
#include "crypto/drbg.hpp"
#include "deploy/replay.hpp"
#include "deploy/sweep.hpp"
#include "mw/sos_node.hpp"
#include "pki/bootstrap.hpp"
#include "sim/multipeer.hpp"
#include "soak/checkpoint.hpp"
#include "util/codec.hpp"
#include "util/time.hpp"

using namespace sos;

namespace {
/// Index of the grid cell with this label; aborts on a miss so a renamed
/// cell cannot silently redirect a benchmark to the wrong workload.
std::size_t grid_cell_index(const std::vector<deploy::SweepCell>& grid,
                            const std::string& label) {
  for (std::size_t i = 0; i < grid.size(); ++i)
    if (grid[i].label == label) return i;
  std::fprintf(stderr, "density_ablation_grid has no cell labelled '%s'\n", label.c_str());
  std::abort();
}
}  // namespace

static void BM_SignupFlow(benchmark::State& state) {
  // Full Fig 2a bootstrap: device keygen + CSR + cloud validation + CA issue.
  int i = 0;
  pki::BootstrapService infra(util::to_bytes("bench-infra"));
  for (auto _ : state) {
    crypto::Drbg device(util::to_bytes("d" + std::to_string(i)));
    benchmark::DoNotOptimize(infra.signup("user-bench-" + std::to_string(i), device, 0.0));
    ++i;
  }
}
BENCHMARK(BM_SignupFlow);

static void BM_SessionHandshake(benchmark::State& state) {
  // Two nodes: connect + cert exchange + ECDH + key schedule, repeatedly.
  // Resumption is disabled so every contact pays the full handshake.
  pki::BootstrapService infra(util::to_bytes("hs-infra"));
  crypto::Drbg d0(util::to_bytes("hs-0")), d1(util::to_bytes("hs-1"));
  sim::Scheduler sched;
  sim::MpcNetwork net(sched, 2);
  mw::SosConfig config;
  config.maintenance_interval_s = 0;
  config.resume_lifetime_s = 0;
  mw::SosNode a(sched, net.endpoint(0), *infra.signup("hs-a", d0, 0), config);
  mw::SosNode b(sched, net.endpoint(1), *infra.signup("hs-b", d1, 0), config);
  a.start();
  b.start();
  a.follow(b.user_id());
  b.publish(util::to_bytes("content"));
  for (auto _ : state) {
    net.set_in_range(0, 1, true);
    sched.run_all();
    net.set_in_range(0, 1, false);
    sched.run_all();
  }
  state.counters["sessions"] =
      static_cast<double>(a.stats().sessions_established);
}
BENCHMARK(BM_SessionHandshake);

static void BM_SessionResume(benchmark::State& state) {
  // Same meet/part cycle as BM_SessionHandshake, but with resumption on:
  // the first contact pays the full handshake, every subsequent contact is
  // a 1-RTT HMAC resume with zero X25519 operations. Compare directly
  // against BM_SessionHandshake for the per-recurring-contact saving.
  pki::BootstrapService infra(util::to_bytes("rs-infra"));
  crypto::Drbg d0(util::to_bytes("rs-0")), d1(util::to_bytes("rs-1"));
  sim::Scheduler sched;
  sim::MpcNetwork net(sched, 2);
  mw::SosConfig config;
  config.maintenance_interval_s = 0;
  config.resume_lifetime_s = 1e12;  // never expires within the bench
  mw::SosNode a(sched, net.endpoint(0), *infra.signup("rs-a", d0, 0), config);
  mw::SosNode b(sched, net.endpoint(1), *infra.signup("rs-b", d1, 0), config);
  a.start();
  b.start();
  a.follow(b.user_id());
  b.publish(util::to_bytes("content"));
  // Prime the resumption cache with one full handshake outside the timing.
  net.set_in_range(0, 1, true);
  sched.run_all();
  net.set_in_range(0, 1, false);
  sched.run_all();
  for (auto _ : state) {
    net.set_in_range(0, 1, true);
    sched.run_all();
    net.set_in_range(0, 1, false);
    sched.run_all();
  }
  state.counters["resumed"] = static_cast<double>(a.stats().sessions_resumed);
  state.counters["ecdh_ops"] = static_cast<double>(a.stats().ecdh_ops);
}
BENCHMARK(BM_SessionResume);

static void BM_BundleSignVerify(benchmark::State& state) {
  crypto::Drbg d(util::to_bytes("bv"));
  auto kp = crypto::Ed25519Keypair::from_seed(d.generate_array<32>());
  bundle::Bundle b;
  b.origin = pki::user_id_from_name("author");
  b.msg_num = 1;
  b.payload = d.generate(512);
  for (auto _ : state) {
    b.sign(kp);
    benchmark::DoNotOptimize(b.verify(kp.public_key()));
  }
}
BENCHMARK(BM_BundleSignVerify);

static void BM_BundleVerifyEndToEnd(benchmark::State& state) {
  // Full per-hop gate as the middleware runs it (certificate chain + bundle
  // signature + verified-bundle cache). range(0)==1 re-verifies the same
  // bundle (cache hit, the epidemic re-reception case); range(0)==0 clears
  // the cache each round (cold path).
  pki::BootstrapService infra(util::to_bytes("bv-infra"));
  crypto::Drbg dv(util::to_bytes("bv-v")), dp(util::to_bytes("bv-p"));
  auto verifier = infra.signup("bv-verifier", dv, 0.0);
  auto publisher = infra.signup("bv-publisher", dp, 0.0);
  sim::Scheduler sched;
  sim::MpcNetwork net(sched, 1);
  mw::NodeStats stats;
  mw::AdHocManager adhoc(sched, net.endpoint(0), *verifier, stats);

  std::vector<bundle::Bundle> pool;
  for (std::uint32_t i = 1; i <= 8; ++i) {
    bundle::Bundle b;
    b.origin = publisher->user_id;
    b.msg_num = i;
    b.payload = dp.generate(512);
    b.sign(publisher->signing_keypair);
    pool.push_back(std::move(b));
  }
  const bool cached = state.range(0) == 1;
  // Cold: a capacity-1 cache plus a rotating pool makes every verify a miss.
  if (!cached) adhoc.set_verify_cache_capacity(1);
  std::size_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adhoc.verify_bundle(pool[idx], publisher->certificate));
    if (!cached) idx = (idx + 1) % pool.size();
  }
  state.counters["cache_hits"] = static_cast<double>(stats.bundle_sig_cache_hits);
}
BENCHMARK(BM_BundleVerifyEndToEnd)->Arg(0)->Arg(1);

static void BM_BundleCodec(benchmark::State& state) {
  crypto::Drbg d(util::to_bytes("bc"));
  bundle::Bundle b;
  b.origin = pki::user_id_from_name("author");
  b.msg_num = 7;
  b.payload = d.generate(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto enc = b.encode();
    benchmark::DoNotOptimize(bundle::Bundle::decode(enc));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BundleCodec)->Arg(64)->Arg(1024)->Arg(65536);

static void BM_StoreSummary(benchmark::State& state) {
  // summary() itself is now a const-ref getter (maintained incrementally);
  // what callers actually pay is the copy the advertisement path takes, so
  // that is what this measures.
  bundle::BundleStore store(100000);
  crypto::Drbg d(util::to_bytes("ss"));
  for (int user = 0; user < 20; ++user) {
    for (std::uint32_t num = 1; num <= static_cast<std::uint32_t>(state.range(0)) / 20; ++num) {
      bundle::Bundle b;
      b.origin = pki::user_id_from_name("u" + std::to_string(user));
      b.msg_num = num;
      store.insert(std::move(b), 0);
    }
  }
  for (auto _ : state) {
    std::map<pki::UserId, std::uint32_t> ad = store.summary();
    benchmark::DoNotOptimize(ad);
  }
}
BENCHMARK(BM_StoreSummary)->Arg(200)->Arg(2000);

static void BM_StoreChurn(benchmark::State& state) {
  // Where the old per-call summary() cost moved: the incremental
  // maintenance paid on insert/remove. Inserts a fresh bundle and removes
  // the oldest each iteration on a store holding range(0) bundles, so a
  // regression in refresh_summary's O(log n) range-max refresh shows here.
  bundle::BundleStore store(100000);
  const std::uint32_t held = static_cast<std::uint32_t>(state.range(0));
  auto uid = pki::user_id_from_name("churner");
  for (std::uint32_t num = 1; num <= held; ++num) {
    bundle::Bundle b;
    b.origin = uid;
    b.msg_num = num;
    store.insert(std::move(b), 0);
  }
  std::uint32_t next = held + 1, oldest = 1;
  for (auto _ : state) {
    bundle::Bundle b;
    b.origin = uid;
    b.msg_num = next++;
    store.insert(std::move(b), 0);
    store.remove({uid, oldest++});
    benchmark::DoNotOptimize(store.summary());
  }
}
BENCHMARK(BM_StoreChurn)->Arg(2000);

static void BM_DensityCell(benchmark::State& state) {
  // End-to-end recurring-pair-heavy scenario (the ablation_density session
  // churn sweep): a dense 7-day epidemic deployment with almost no content,
  // so per-encounter session setup dominates the run. range(0)==1 enables
  // session resumption (2-day lifetime, covering day-boundary re-contacts);
  // range(0)==0 is the full-handshake-per-contact baseline.
  for (auto _ : state) {
    deploy::ScenarioConfig config = deploy::gainesville_config("epidemic");
    config.nodes = 40;
    config.area_w_m = 1000;
    config.area_h_m = 1000;
    config.days = 7;
    config.total_posts_target = 20.0;
    config.resume_lifetime_s = state.range(0) == 1 ? 172800.0 : 0.0;
    auto result = deploy::run_scenario(config);
    benchmark::DoNotOptimize(result.totals.deliveries);
    state.counters["resumed"] = static_cast<double>(result.totals.sessions_resumed);
    state.counters["full_hs"] = static_cast<double>(result.totals.full_handshakes);
    state.counters["ecdh_ops"] = static_cast<double>(result.totals.ecdh_ops);
  }
}
BENCHMARK(BM_DensityCell)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

static void BM_CheckpointRoundtrip(benchmark::State& state) {
  // Soak checkpoint save/restore cost on the community cell (48n-4c,
  // 3 days), captured at the middle quiescent cut — roughly the per-day
  // overhead a month-scale soak run pays for resumability. range(0)==0 is
  // save: serialize the whole fleet (the detach/attach inventory per node
  // + scheduler clock + partial metrics) and encode the versioned,
  // integrity-hashed container. range(0)==1 is restore: decode + validate
  // the container, build a fresh fleet, and attach the state — the full
  // cost of re-entering a run from disk, which is why it dwarfs save.
  auto grid = deploy::density_ablation_grid(3.0);
  deploy::SweepRunner runner{deploy::SweepOptions{}};
  const std::size_t idx = grid_cell_index(grid, "48n-4c");
  deploy::ScenarioConfig config = runner.cell_config(grid[idx], idx);
  auto world = deploy::record_world(config);

  deploy::ReplayOptions replay;
  deploy::ReplaySession session(config, *world, replay);
  std::vector<util::SimTime> cuts = session.quiescent_cuts(60.0);
  session.advance_to(cuts.empty() ? session.horizon() / 2 : cuts[cuts.size() / 2]);

  soak::Checkpoint c;
  c.segment = 1;
  c.sim_time = session.sim_time();
  c.world_digest = soak::world_digest(config, *world);

  if (state.range(0) == 0) {
    util::Bytes enc;
    for (auto _ : state) {
      util::Writer w;
      session.save_state(w);
      c.payload = w.take();
      enc = soak::encode_checkpoint(c);
      benchmark::DoNotOptimize(enc);
    }
    state.counters["checkpoint_bytes"] = static_cast<double>(enc.size());
  } else {
    util::Writer w;
    session.save_state(w);
    c.payload = w.take();
    const util::Bytes enc = soak::encode_checkpoint(c);
    for (auto _ : state) {
      std::string error;
      auto decoded = soak::decode_checkpoint(util::ByteView(enc), &error);
      deploy::ReplaySession fresh(config, *world, replay);
      util::Reader r{util::ByteView(decoded->payload)};
      bool ok = fresh.load_state(r);
      benchmark::DoNotOptimize(ok);
    }
    state.counters["checkpoint_bytes"] = static_cast<double>(enc.size());
  }
}
BENCHMARK(BM_CheckpointRoundtrip)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

static void BM_StoreNewerThan(benchmark::State& state) {
  bundle::BundleStore store(100000);
  auto uid = pki::user_id_from_name("author");
  for (std::uint32_t num = 1; num <= 2000; ++num) {
    bundle::Bundle b;
    b.origin = uid;
    b.msg_num = num;
    store.insert(std::move(b), 0);
  }
  // Walks the 100 newest of 2,000 held bundles in place, reading each.
  for (auto _ : state) {
    std::uint64_t bytes = 0;
    for (const auto& [id, stored] : store.newer_than(uid, 1900))
      bytes += stored.bundle.payload.size();
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_StoreNewerThan);

BENCHMARK_MAIN();
