// SweepRunner: the engine behind every scenario grid in the evaluation
// (Fig 4a-d, ablations). A sweep is a list of independent cells — one
// (mobility, density, workload) world each — times the scheme/middleware
// variants to run over that world. The runner owns what every bench driver
// used to reimplement serially:
//
//   * fan-out: cells x variants execute on a thread pool (--jobs N),
//   * seeding: each cell draws its RNG stream via splitmix64 from
//     (base seed, cell index), so metrics are bitwise identical at any
//     thread count and any completion order,
//   * record-once/replay-many: a cell's mobility + contact trace are
//     recorded once and every variant replays them,
//   * aggregation: results come back in grid order, never completion order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "deploy/scenario.hpp"

namespace sos::deploy {

/// One middleware/routing variant replayed over a cell's shared world.
/// Only fields that cannot change the recorded world are here by
/// construction — faults qualify because they are applied as a replay-time
/// transformation of the shared recorded trace, never by re-recording.
struct ScenarioVariant {
  std::string label;                      // defaults to the scheme name
  std::string scheme = "interest";
  double resume_lifetime_s = 86400.0;
  /// Bundle-signature verification on delivery/forwarding paths (the
  /// signed-vs-unsigned disaster ablation). Handshake authentication is
  /// never ablated.
  bool verify_signatures = true;
  /// Variant-level fault plan override; unset keeps the cell config's plan.
  /// Validated (with everything else) up front by SweepRunner::run.
  std::optional<sim::FaultPlanConfig> faults = std::nullopt;
};

/// One grid cell: a world/workload config plus the variants sharing it.
/// Each variant overrides `config.scheme`, `resume_lifetime_s`,
/// `verify_signatures` and (when set) `faults`; `config.seed` is overridden
/// by the runner's derived per-cell seed.
struct SweepCell {
  std::string label;
  ScenarioConfig config;
  std::vector<ScenarioVariant> variants{ScenarioVariant{}};
};

struct CellResult {
  std::size_t cell = 0;          // index into the input grid
  std::size_t variant = 0;       // index into that cell's variants
  std::string label;             // "<cell label>/<variant label>"
  ScenarioConfig config;         // as executed (derived seed filled in)
  ScenarioResult result;
  double wall_s = 0.0;
  /// Strand-parallel speedup ceiling of the cell's recorded trace
  /// (sim::ContactDag::parallelism()). Reported per cell by the density
  /// benches so trace-shape regressions — a community cell collapsing back
  /// to one chain — are visible in the bench tables, not only from tests;
  /// it bounds what the strand engine (ReplayOptions::subepisode_jobs) can
  /// exploit on the cell. The sweep itself replays on the single-scheduler
  /// reference.
  double subepisode_parallelism = 0.0;
  /// Max contact tasks concurrently open in sim time
  /// (sim::ContactDag::width()); the single-hotspot cells report width > 1
  /// even where their parallelism ceiling sits near 1.
  std::size_t subepisode_width = 0;
};

/// A sweep is parallel at one level only: (cell, variant) items fan out
/// over `jobs` threads, and each item replays on the single-scheduler
/// reference (run_scenario). All variants of a cell replay against one
/// shared crypto::VerifyMemo (they share one recorded world, hence
/// identical bundles and certificates), so each distinct signature pays
/// curve math once per cell instead of once per variant; metrics are
/// bitwise identical to run-local memos (pinned by ctest -L sweep).
struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = fully serial.
  std::size_t jobs = 1;
  std::uint64_t base_seed = 42;
  /// Derive each cell's seed from (base_seed, cell index). Off, cells keep
  /// the seed already in their config — the figure-regeneration benches
  /// pin the calibrated Gainesville seed this way.
  bool derive_seeds = true;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {});

  /// Execute every (cell, variant) pair. The returned vector is ordered by
  /// (cell, variant) regardless of which worker finished first, and every
  /// metric in it is a pure function of (base seed, grid) — never of
  /// `jobs`. Every (cell, variant) fault plan is validated up front
  /// (sim::FaultPlanConfig::validate against the cell's horizon and node
  /// count); an insane grid throws std::invalid_argument listing every
  /// problem before any cell runs.
  std::vector<CellResult> run(const std::vector<SweepCell>& cells) const;

  /// The exact config `run` executes for one (cell, variant) — including
  /// the derived per-cell seed. Characterization benches use this instead
  /// of re-deriving seeds, so they cannot drift from the sweep.
  ScenarioConfig cell_config(const SweepCell& cell, std::size_t cell_index,
                             std::size_t variant_index = 0) const;

  const SweepOptions& options() const { return opts_; }

 private:
  SweepOptions opts_;
};

/// Bench-driver CLI: parses `--jobs N` / `--jobs=N` / `-j N` / `-jN`; unset
/// means serial. A missing, non-numeric or negative value warns and keeps
/// the previous one — a typo must not mean "all cores". Any other argument
/// warns and is ignored.
SweepOptions sweep_options_from_args(int argc, char** argv);

/// The canonical density-ablation grid (§VI-B follow-up): the deployment's
/// sparse operating point down to "typical DTN sim" densities, IB routing,
/// ~26 posts/user/week. Shared by bench_ablation_density, fig4a's
/// community-graph characterization, BM_CheckpointRoundtrip and
/// episode_test's community-cell pins so they can never drift apart.
std::vector<SweepCell> density_ablation_grid(double days = 3.0);

/// The disaster fault pack: one mid-density epidemic world per fault
/// regime — calm baseline, lossy/asymmetric links, aftershock jitter storm
/// with a radio-dead window, battery churn with reboot-with-store-loss, a
/// partition-and-heal quake timeline, a blackhole/grayhole mix, and a
/// forged-signature storm — each run as a signed and an unsigned variant.
/// Shared by bench_disaster_pack (the README's disaster table) and the
/// fault determinism tests.
std::vector<SweepCell> disaster_pack_grid(double days = 2.0);

}  // namespace sos::deploy
