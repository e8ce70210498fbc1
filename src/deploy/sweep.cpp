#include "deploy/sweep.hpp"

#include "crypto/verify_memo.hpp"
#include "deploy/replay.hpp"
#include "sim/subepisode.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace sos::deploy {

namespace {
struct WorkItem {
  std::size_t cell = 0;
  std::size_t variant = 0;
};

ScenarioConfig variant_config(const SweepCell& cell, const ScenarioVariant& v,
                              const SweepOptions& opts, std::size_t cell_index) {
  ScenarioConfig config = cell.config;
  if (opts.derive_seeds) config.seed = util::derive_seed(opts.base_seed, cell_index);
  config.scheme = v.scheme;
  config.resume_lifetime_s = v.resume_lifetime_s;
  config.verify_batch_window_s = v.verify_batch_window_s;
  config.verify_batch_adaptive = v.verify_batch_adaptive;
  config.verify_signatures = v.verify_signatures;
  if (v.faults) config.faults = *v.faults;
  return config;
}
}  // namespace

ScenarioConfig SweepRunner::cell_config(const SweepCell& cell, std::size_t cell_index,
                                        std::size_t variant_index) const {
  return variant_config(cell, cell.variants.at(variant_index), opts_, cell_index);
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {
  if (opts_.jobs == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    opts_.jobs = hw > 0 ? hw : 1;
  }
}

std::vector<CellResult> SweepRunner::run(const std::vector<SweepCell>& cells) const {
  // Validate every (cell, variant) fault plan before running anything: an
  // insane grid (overlapping churn, adversary fraction >= 1, windows
  // outside the horizon) fails fast with every problem listed, instead of
  // burning a grid's worth of CPU on a nonsense cell.
  std::string problems;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t v = 0; v < cells[c].variants.size(); ++v) {
      ScenarioConfig config = variant_config(cells[c], cells[c].variants[v], opts_, c);
      for (const std::string& p :
           config.faults.validate(util::days(config.days), config.nodes)) {
        const std::string& vlabel = cells[c].variants[v].label.empty()
                                        ? cells[c].variants[v].scheme
                                        : cells[c].variants[v].label;
        problems += "cell " + std::to_string(c) + " (" +
                    (cells[c].label.empty() ? vlabel : cells[c].label + "/" + vlabel) +
                    "): " + p + "\n";
      }
    }
  }
  if (!problems.empty()) {
    throw std::invalid_argument("invalid sweep fault plan(s):\n" + problems);
  }

  std::vector<WorkItem> items;
  for (std::size_t c = 0; c < cells.size(); ++c)
    for (std::size_t v = 0; v < cells[c].variants.size(); ++v) items.push_back({c, v});

  std::vector<CellResult> results(items.size());
  // Concurrency audit (why nothing here is SOS_GUARDED_BY): every shared
  // vector is sliced so each slot has exactly one writer — results[i] by the
  // worker that claimed item i off the atomic counter, worlds/parallelism/
  // memos[cell] by the call_once winner (losers block until the write is
  // published by call_once's internal fence). Readers see those writes
  // through call_once (same cell) or thread join (the merge below). The
  // only mutexes on this path live inside VerifyMemo and the strand
  // engine's KahnQueue, both annotated at their definitions.
  // Worlds are recorded lazily, once per cell, by whichever worker reaches
  // the cell first; call_once blocks that cell's other variants (not other
  // cells) until the recording is done. The same pass partitions the trace
  // (for the per-cell parallelism report) and mints the cell's sweep-wide
  // verify memo.
  std::unique_ptr<std::once_flag[]> world_once(new std::once_flag[cells.size()]);
  std::vector<std::shared_ptr<const ScenarioWorld>> worlds(cells.size());
  std::vector<std::unique_ptr<crypto::VerifyMemo>> memos(cells.size());
  std::vector<double> strand_parallelism(cells.size(), 0.0);
  std::vector<std::size_t> strand_width(cells.size(), 0);

  // Nested parallelism: cell workers and strand workers draw on one token
  // pool sized to the job count. Tokens not consumed by cell workers (and
  // tokens cell workers return as the grid drains) are borrowed by the
  // strand engines of still-running cells, so the heavy cells inherit the
  // threads their finished siblings no longer need.
  std::size_t cell_workers =
      (opts_.jobs <= 1 || items.size() <= 1) ? 1 : std::min(opts_.jobs, items.size());
  WorkerBudget budget(opts_.jobs > cell_workers ? opts_.jobs - cell_workers : 0);
  ReplayOptions replay;
  replay.subepisode_jobs = opts_.subepisode_jobs;  // > 0 selects the strand engine
  replay.budget = opts_.subepisode_jobs > 0 ? &budget : nullptr;

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < items.size(); i = next.fetch_add(1)) {
      const WorkItem& item = items[i];
      const SweepCell& cell = cells[item.cell];
      const ScenarioVariant& variant = cell.variants[item.variant];
      ScenarioConfig config = variant_config(cell, variant, opts_, item.cell);

      std::call_once(world_once[item.cell], [&] {
        worlds[item.cell] = record_world(config);
        sim::ContactDag dag = sim::ContactDag::partition(worlds[item.cell]->trace, config.nodes,
                                                         util::days(config.days));
        strand_parallelism[item.cell] = dag.parallelism();
        strand_width[item.cell] = dag.width();
        if (opts_.cell_verify_memo) {
          memos[item.cell] = std::make_unique<crypto::VerifyMemo>();
        }
      });

      CellResult& out = results[i];
      ReplayOptions item_replay = replay;
      item_replay.memo = memos[item.cell].get();  // nullptr = run-local scope
      auto t0 = std::chrono::steady_clock::now();
      out.result = run_scenario(config, worlds[item.cell].get(), item_replay);
      out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      out.cell = item.cell;
      out.variant = item.variant;
      const std::string& vlabel = variant.label.empty() ? variant.scheme : variant.label;
      out.label = cell.label.empty() ? vlabel : cell.label + "/" + vlabel;
      out.config = std::move(config);
      out.subepisode_parallelism = strand_parallelism[item.cell];
      out.subepisode_width = strand_width[item.cell];
    }
    // This cell worker is done: hand its thread token to the strand
    // engines of cells still running.
    budget.release(1);
  };

  if (cell_workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(cell_workers);
    for (std::size_t i = 0; i < cell_workers; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  return results;
}

namespace {
/// Strict numeric parse; a typo must not silently become 0 (= saturate
/// every core). Invalid input warns and keeps the current value.
std::size_t parse_jobs(const char* text, std::size_t fallback, const char* source) {
  char* end = nullptr;
  long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) {
    std::fprintf(stderr, "warning: ignoring non-numeric %s value '%s'\n", source, text);
    return fallback;
  }
  return static_cast<std::size_t>(v);
}
}  // namespace

SweepOptions sweep_options_from_args(int argc, char** argv) {
  SweepOptions opts;
  if (const char* env = std::getenv("SOS_SWEEP_JOBS")) {
    opts.jobs = parse_jobs(env, opts.jobs, "SOS_SWEEP_JOBS");
  }
  if (const char* env = std::getenv("SOS_SUBEPISODE_JOBS")) {
    opts.subepisode_jobs = parse_jobs(env, opts.subepisode_jobs, "SOS_SUBEPISODE_JOBS");
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
      if (i + 1 < argc) {
        opts.jobs = parse_jobs(argv[++i], opts.jobs, "--jobs");
      } else {
        std::fprintf(stderr, "warning: %s needs a value; ignoring\n", arg);
      }
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      opts.jobs = parse_jobs(arg + 7, opts.jobs, "--jobs");
    } else if (std::strcmp(arg, "--subepisode-jobs") == 0) {
      if (i + 1 < argc) {
        opts.subepisode_jobs =
            parse_jobs(argv[++i], opts.subepisode_jobs, "--subepisode-jobs");
      } else {
        std::fprintf(stderr, "warning: %s needs a value; ignoring\n", arg);
      }
    } else if (std::strncmp(arg, "--subepisode-jobs=", 18) == 0) {
      opts.subepisode_jobs = parse_jobs(arg + 18, opts.subepisode_jobs, "--subepisode-jobs");
    } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
      opts.jobs = parse_jobs(arg + 2, opts.jobs, "-j");
    }
  }
  return opts;
}

std::vector<SweepCell> density_ablation_grid(double days) {
  auto cell = [days](std::size_t nodes, double w_m, double h_m) {
    SweepCell c;
    c.label = std::to_string(nodes) + "n";
    c.config = gainesville_config("interest");
    c.config.nodes = nodes;
    c.config.area_w_m = w_m;
    c.config.area_h_m = h_m;
    c.config.days = days;
    // Keep per-user posting volume constant as the population grows.
    c.config.total_posts_target = 26.0 * static_cast<double>(nodes);
    c.variants = {{"interest", "interest", 86400.0, 0.0}};
    return c;
  };
  std::vector<SweepCell> grid = {
      cell(10, 11000, 8000),   // the deployment: 0.11 nodes/km^2
      cell(20, 11000, 8000),
      cell(50, 11000, 8000),
      cell(20, 4000, 4000),    // mid density
      cell(50, 2000, 2000),    // "typical DTN sim": 12.5 nodes/km^2
      cell(100, 2000, 2000),
  };
  // Community-structured cell (appended so the other cells keep their
  // derived seeds): four disjoint 12-node communities with their own
  // hotspot pools and home clusters, 10% bridge commuters. Spatially this
  // is four sparse villages rather than one dense city, and causally it is
  // the regime where the strand partitioner decomposes the day into
  // independent chains — the per-cell parallelism ceiling reads >= 2 here
  // (pinned by tests/episode_test.cpp).
  SweepCell comm = cell(48, 6000, 6000);
  comm.label = "48n-4c";
  comm.config.communities = 4;
  comm.config.bridge_node_frac = 0.10;
  // Household-separated homes: an overnight pair inside radio range chains
  // the community's days into one causal span and defeats the decomposition.
  comm.config.mobility.home_min_separation_m = 150.0;
  grid.push_back(std::move(comm));
  return grid;
}

std::vector<SweepCell> disaster_pack_grid(double days) {
  const double horizon = util::days(days);
  // Signed vs unsigned epidemic over the same faulted world. Unsigned
  // ablates bundle verification only — handshakes stay authenticated — so
  // the delta isolates what signature checking buys under attack.
  ScenarioVariant signed_v;
  signed_v.label = "signed";
  signed_v.scheme = "epidemic";
  ScenarioVariant unsigned_v = signed_v;
  unsigned_v.label = "unsigned";
  unsigned_v.verify_signatures = false;

  auto cell = [&](const std::string& label) {
    SweepCell c;
    c.label = label;
    c.config = gainesville_config("epidemic");
    c.config.nodes = 24;
    c.config.area_w_m = 2000;
    c.config.area_h_m = 2000;
    c.config.days = days;
    c.config.total_posts_target = 8.0 * 24.0 * days;  // ~8 posts/user/day
    c.variants = {signed_v, unsigned_v};
    return c;
  };

  std::vector<SweepCell> grid;
  grid.push_back(cell("calm"));

  // Lossy, asymmetric links: the damaged-antenna pathology — one direction
  // drops 5x more than the other.
  SweepCell lossy = cell("lossy");
  lossy.config.faults.link.loss_p = 0.05;
  lossy.config.faults.link.loss_p_reverse = 0.25;
  lossy.config.faults.link.jitter_max_s = 0.02;
  grid.push_back(std::move(lossy));

  // Aftershock storm: baseline jitter, two congestion spikes, one
  // radio-dead sweep mid-horizon.
  SweepCell storm = cell("storm");
  storm.config.faults.link.loss_p = 0.10;
  storm.config.faults.link.jitter_max_s = 0.05;
  storm.config.faults.link.jitter_spikes = {{0.25 * horizon, 0.30 * horizon},
                                            {0.60 * horizon, 0.70 * horizon}};
  storm.config.faults.link.jitter_spike_max_s = 0.5;
  storm.config.faults.link.disconnects = {{0.45 * horizon, 0.50 * horizon}};
  grid.push_back(std::move(storm));

  // Battery churn: a third of the fleet dies and power-cycles; most reboots
  // lose the store, one also loses the session-resume cache.
  SweepCell churn = cell("churn");
  for (std::uint32_t n : {1u, 5u, 9u, 13u, 17u, 21u}) {
    sim::NodeChurnEvent ev;
    ev.node = n;
    ev.down_at = (0.20 + 0.08 * (n % 4)) * horizon;
    ev.up_at = ev.down_at + 0.15 * horizon;
    ev.lose_store = true;
    ev.lose_resume_cache = (n == 13);
    churn.config.faults.churn.push_back(ev);
  }
  grid.push_back(std::move(churn));

  // Quake: the area splits into two isolated halves for a quarter of the
  // horizon, then heals.
  SweepCell quake = cell("quake");
  quake.config.faults.partitions = {{{0.30 * horizon, 0.55 * horizon}, 2}};
  grid.push_back(std::move(quake));

  // Routing-layer adversaries: blackhole sinks plus grayhole forwarders
  // whose radios silently eat half their outbound frames.
  SweepCell blackhole = cell("blackhole");
  blackhole.config.faults.adversaries.blackhole_frac = 0.15;
  blackhole.config.faults.adversaries.grayhole_frac = 0.15;
  blackhole.config.faults.adversaries.grayhole_forward_p = 0.5;
  grid.push_back(std::move(blackhole));

  // Forged-signature storm: forgers flood junk bundles whose signatures
  // never verify. Signed variants pay pure rejection load; unsigned
  // variants spread the junk for free.
  SweepCell sigstorm = cell("sigstorm");
  sigstorm.config.faults.adversaries.forger_frac = 0.20;
  sigstorm.config.faults.adversaries.flood_posts_per_hour = 30.0;
  grid.push_back(std::move(sigstorm));

  // Siege: blackhole sinks and a forged-signature storm at once — the
  // headline signed-vs-unsigned ablation condition. Signed deployments pay
  // verification to reject the storm; unsigned deployments carry it into
  // their already-blackholed capacity.
  SweepCell siege = cell("siege");
  siege.config.faults.adversaries.blackhole_frac = 0.15;
  siege.config.faults.adversaries.forger_frac = 0.20;
  siege.config.faults.adversaries.flood_posts_per_hour = 30.0;
  grid.push_back(std::move(siege));

  return grid;
}

}  // namespace sos::deploy
