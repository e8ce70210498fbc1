// Disaster fault pack: the post-disaster conditions the paper's SOS
// messaging exists for. One row per deploy::disaster_pack_grid cell — calm,
// lossy, storm, churn, quake, blackhole, sigstorm, siege — each replaying a
// signed and an unsigned epidemic variant over one shared recorded world.
// Runs on deploy::SweepRunner (--jobs N); every column is bitwise identical
// at any worker count and matches the strand engine (ctest -L fault pins
// both), so the table is the README's disaster table verbatim.
#include <cstdio>
#include <string>

#include "deploy/report.hpp"
#include "deploy/sweep.hpp"

using namespace sos;

int main(int argc, char** argv) {
  deploy::SweepRunner runner(deploy::sweep_options_from_args(argc, argv));

  deploy::print_heading("Disaster pack: signed vs unsigned epidemic under faults");
  std::printf("24 nodes / 4 km^2, 2 days, ~8 posts/user/day; %zu sweep worker(s),\n"
              "per-cell seeds derived via splitmix64 from base seed %llu.\n"
              "delivery = honest posts delivered / deliverable (adversarial junk never\n"
              "counts), interrupted = transfers cut by a contact ending, rejected =\n"
              "forged bundle signatures refused, dropped = frames eaten by injected\n"
              "loss or grayholes, reboots = churn power cycles.\n\n",
              runner.options().jobs,
              static_cast<unsigned long long>(runner.options().base_seed));

  const std::vector<deploy::SweepCell> grid = deploy::disaster_pack_grid(2.0);
  const auto results = runner.run(grid);

  deploy::Table t({"cell", "delivery signed", "delivery unsigned", "interrupted signed",
                   "interrupted unsigned", "rejected signed", "rejected unsigned",
                   "dropped signed", "dropped unsigned", "reboots"});
  // Results come back in (cell, variant) order, and every cell's variants
  // are {signed, unsigned}.
  for (std::size_t c = 0; c < grid.size(); ++c) {
    const deploy::ScenarioResult& s = results[2 * c].result;
    const deploy::ScenarioResult& u = results[2 * c + 1].result;
    t.add_row({grid[c].label, deploy::fmt(s.oracle.posted_delivery_ratio(), 3),
               deploy::fmt(u.oracle.posted_delivery_ratio(), 3),
               std::to_string(s.totals.transfers_interrupted),
               std::to_string(u.totals.transfers_interrupted),
               std::to_string(s.totals.bundle_sig_rejected),
               std::to_string(u.totals.bundle_sig_rejected),
               std::to_string(s.frames_dropped_fault), std::to_string(u.frames_dropped_fault),
               std::to_string(s.totals.reboots)});
  }
  t.print();
  return 0;
}
