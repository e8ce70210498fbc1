// The benchmark's workloads, written out field by field so that an edit to
// a scenario grid or to a config default elsewhere in the tree cannot
// silently change what the benchmark measures.
//
// Each workload is one fixed recorded world (mobility + contact trace, from
// the world seed below) replayed under social graphs drawn from the CLI
// seed: who follows whom is the input the seed varies. The mobility world is
// held fixed because its run-to-run spread across world seeds is 25-50% in
// wall time on every workload (NOTES.md), far beyond any bound a regression
// gate can use, while the social graph moves the middleware's work by a
// few percent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deploy/scenario.hpp"
#include "graph/digraph.hpp"

namespace sosbench {

struct Workload {
  std::string name;
  /// Config of the recorded world and of every replay (seed = world seed);
  /// `social` is filled per replay from the CLI seed.
  sos::deploy::ScenarioConfig config;
  /// Engine selection; the caller-owned verify memo is set per replay.
  sos::deploy::ReplayOptions replay;
  /// Segment the replay at the first quiescent cut past each simulated day
  /// and take an in-memory checkpoint round trip there (the soak harness's
  /// cadence).
  bool daily_checkpoints = false;
  /// Seeded social graphs per measurement cycle. A cycle replays each of
  /// them, and the canary input, once (main.cpp), so each run sees its
  /// inputs in the same proportions.
  std::size_t graphs_per_cycle = 1;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The index-th social graph of a run with CLI seed `seed`: the campus
/// community model the scenario runner samples for non-deployment sizes
/// (mutual 0.38, one-way 0.35), drawn from a stream keyed by (seed, index).
sos::graph::Digraph social_graph(const Workload& w, std::uint64_t seed, std::size_t index);

/// Seed whose graph 0 is every workload's canary input (golden.hpp).
inline constexpr std::uint64_t kDefaultSeed = 1;

}  // namespace sosbench
