// Density ablation — the paper closes §VI-B noting that its 10 nodes in
// 88 km^2 is far sparser than typical DTN simulations (50-100 nodes in
// 0.25-4 km^2) and that "further investigations at higher densities are
// needed". This bench performs that investigation: node-count and area
// sweeps under IB routing, plus the recurring-pair session-churn sweep.
// All cells run on deploy::SweepRunner (pass --jobs N to replay that many
// (cell, variant) items at once; metrics are bitwise identical at any
// thread count). The "dag par" column is the cell's strand-parallelism
// ceiling, a property of its recorded trace.
#include <chrono>
#include <cstdio>
#include <string>

#include "deploy/report.hpp"
#include "deploy/sweep.hpp"
#include "util/time.hpp"

using namespace sos;

namespace {
void density_row(deploy::Table& t, std::size_t row, const deploy::CellResult& r) {
  const auto& oracle = r.result.oracle;
  auto delays = oracle.delay_cdf(false);
  double w_m = r.config.area_w_m, h_m = r.config.area_h_m;
  double area_km2 = w_m / 1000.0 * h_m / 1000.0;
  double density = static_cast<double>(r.config.nodes) / area_km2;
  // Sessions that skipped the X25519 + cert exchange on a recurring contact.
  double resume_share = r.result.totals.sessions_established == 0
                            ? 0.0
                            : static_cast<double>(r.result.totals.sessions_resumed) /
                                  static_cast<double>(r.result.totals.sessions_established);
  t.set_row(row, {r.label, std::to_string(r.config.nodes), deploy::fmt(area_km2, 1),
                  deploy::fmt(density, 2), std::to_string(r.result.contacts),
                  std::to_string(oracle.delivery_count()),
                  deploy::fmt(oracle.overall_delivery_ratio(), 3),
                  delays.empty() ? "-" : util::format_duration(delays.quantile(0.5)),
                  deploy::fmt(oracle.one_hop_fraction(), 3), deploy::fmt(resume_share, 2),
                  deploy::fmt(r.subepisode_parallelism, 2),
                  std::to_string(r.subepisode_width), deploy::fmt(r.wall_s, 2)});
}
}  // namespace

int main(int argc, char** argv) {
  deploy::SweepOptions opts = deploy::sweep_options_from_args(argc, argv);
  deploy::SweepRunner runner(opts);

  deploy::print_heading("Density ablation (the paper's suggested follow-up)");

  std::printf("3-day runs, IB routing, ~26 posts/user/week equivalent; %zu sweep\n"
              "worker(s), per-cell seeds derived via splitmix64 from base seed %llu.\n"
              "Recurring contacts resume cached sessions (resume share below);\n"
              "set ScenarioVariant::resume_lifetime_s = 0 for the full-handshake-\n"
              "per-contact baseline.\n\n",
              runner.options().jobs,
              static_cast<unsigned long long>(runner.options().base_seed));

  // Paper's own operating point (sparse) down to simulation-dense setups.
  std::vector<deploy::SweepCell> grid = deploy::density_ablation_grid(3.0);
  auto wall0 = std::chrono::steady_clock::now();
  auto results = runner.run(grid);
  double sweep_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  deploy::Table t({"cell", "nodes", "area km^2", "nodes/km^2", "encounters", "deliveries",
                   "delivery ratio", "median delay", "1-hop share", "resumed",
                   "dag par", "dag width", "cell s"});
  for (const auto& r : results) density_row(t, r.cell, r);
  t.print();
  std::printf("sweep wall-clock: %.2f s (%zu cells, %zu worker(s))\n", sweep_wall,
              grid.size(), runner.options().jobs);

  std::printf("shape: encounters and deliveries scale superlinearly with density and\n"
              "the 1-hop share falls (relaying takes over), while median delay stays at\n"
              "day-scale — under human daily routines the *schedule*, not spatial\n"
              "density, binds delivery latency. Higher density buys reach (more\n"
              "subscribers served, more relay paths), not speed: exactly the regime\n"
              "distinction the paper asks future work to quantify.\n");

  // --- session-churn sweep: the resumption ablation --------------------------
  // Recurring-pair-heavy shape: a dense deployment over a full week with
  // almost no content, so per-encounter session setup (cert exchange +
  // X25519 + key schedule) dominates and most contacts are re-contacts.
  // Epidemic and PRoPHET reconnect pairs hardest (any pair with undelivered
  // content re-handshakes at every meeting), so resumption is measured
  // under both — one shared recorded world, four replayed variants.
  deploy::print_heading("Session churn (recurring-pair sweep: epidemic & prophet)");
  std::printf("7-day runs, 40 nodes / 1 km^2, 20 posts total: contact setup\n"
              "dominates. Resumption lifetime 2 days (covers the daily routine's\n"
              "day-boundary re-contacts) vs. full handshake per contact.\n\n");

  deploy::SweepCell churn;
  churn.label = "churn";
  churn.config = deploy::gainesville_config("epidemic");
  churn.config.nodes = 40;
  churn.config.area_w_m = 1000;
  churn.config.area_h_m = 1000;
  churn.config.days = 7;
  churn.config.total_posts_target = 20.0;
  churn.variants = {
      {"epidemic/resume off", "epidemic", 0.0},
      {"epidemic/resume on", "epidemic", 172800.0},
      {"prophet/resume off", "prophet", 0.0},
      {"prophet/resume on", "prophet", 172800.0},
  };

  auto churn_results = runner.run({churn});
  deploy::Table ct({"variant", "sessions", "full handshakes", "resumed", "resume share",
                    "X25519 ops", "wall s"});
  for (const auto& r : churn_results) {
    const auto& s = r.result.totals;
    double share = s.sessions_established == 0
                       ? 0.0
                       : static_cast<double>(s.sessions_resumed) /
                             static_cast<double>(s.sessions_established);
    ct.set_row(r.variant, {r.label, std::to_string(s.sessions_established),
                           std::to_string(s.full_handshakes),
                           std::to_string(s.sessions_resumed), deploy::fmt(share, 2),
                           std::to_string(s.ecdh_ops), deploy::fmt(r.wall_s, 2)});
  }
  ct.print();
  std::printf("epidemic/prophet reconnect the same pairs far harder than IB routing\n"
              "(every undelivered bundle is a reason to meet again), so the resumed\n"
              "share here is the protocol's best case.\n");
  return 0;
}
