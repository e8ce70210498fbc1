#include "workloads.hpp"

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace sosbench {

namespace {

using sos::deploy::ScenarioConfig;

// One world seed for every workload: the tree's default scenario seed.
constexpr std::uint64_t kWorldSeed = 42;

// Every ScenarioConfig field, set explicitly to the values the three
// workloads share. Each workload then overrides its own fields below.
ScenarioConfig base_config() {
  ScenarioConfig c;
  c.nodes = 0;
  c.area_w_m = 0;
  c.area_h_m = 0;
  c.days = 0;
  c.scheme = "interest";
  c.total_posts_target = 0;
  c.seed = kWorldSeed;

  c.radio.range_m = 80.0;
  c.radio.bandwidth_bps = 2e6 * 8;
  c.radio.latency_s = 0.02;
  c.radio.setup_time_s = 1.5;

  sos::sim::DailyRoutineParams& m = c.mobility;
  m.area = {0, 0};  // copied from area_w_m/area_h_m by the world recorder
  m.hotspot_count = 5;
  m.hotspot_cluster_frac = 0.3;
  m.hotspot_radius_m = 25.0;
  m.active_weekdays = 3;
  m.active_attend_p = 0.92;
  m.offday_attend_p = 0.1;
  m.weekend_attend_p = 0.12;
  m.min_visits_per_day = 1;
  m.max_visits_per_day = 4;
  m.min_dwell_s = 90 * 60.0;
  m.max_dwell_s = 4 * 3600.0;
  m.travel_speed_mps = 8.0;
  m.return_home_h = 18.0;
  m.highly_active = {};
  m.popular_spot_p = 0.8;
  m.preferred_spot_p = 0.0;
  m.sleep_start_h = 23.0;
  m.wake_h = 7.5;
  m.community_count = 1;  // copied from `communities` by the world recorder
  m.bridge_node_frac = 0.0;
  m.bridge_weekday_only = false;
  m.bridge_favorite_p = 0.0;
  m.community_spread_frac = 0.6;
  m.home_min_separation_m = 0.0;

  c.encounter_tick_s = 30.0;
  c.communities = 1;
  c.bridge_node_frac = 0.0;
  c.resume_lifetime_s = 86400.0;
  c.verify_batch_window_s = 0.0;
  c.verify_batch_adaptive = false;

  c.faults.link.loss_p = 0.0;
  c.faults.link.loss_p_reverse = -1.0;
  c.faults.link.jitter_max_s = 0.0;
  c.faults.link.jitter_spikes = {};
  c.faults.link.jitter_spike_max_s = 0.0;
  c.faults.link.disconnects = {};
  c.faults.churn = {};
  c.faults.partitions = {};
  c.faults.adversaries.flooder_frac = 0.0;
  c.faults.adversaries.blackhole_frac = 0.0;
  c.faults.adversaries.grayhole_frac = 0.0;
  c.faults.adversaries.forger_frac = 0.0;
  c.faults.adversaries.grayhole_forward_p = 0.5;
  c.faults.adversaries.flood_posts_per_hour = 20.0;

  c.verify_signatures = true;
  c.store_capacity = 10000;
  c.social.reset();
  c.post_window_start_h = 18.5;
  c.post_window_end_h = 23.5;
  return c;
}

std::vector<Workload> build() {
  std::vector<Workload> out;

  // hotspot-100n: 100 nodes on 2x2 km around one popular hotspot, interest
  // routing, serial replay with default ReplayOptions. Session-layer
  // transfer work dominates (AEAD traffic, handshakes, duplicate
  // receptions); the contact DAG is one chain (parallelism ~1.0), so it
  // bypasses the parallel engines. Two days so the first evening's posts
  // spread at the second day's gatherings; 13 posts/user keeps one replay
  // near 4 s so a run holds several.
  {
    Workload w;
    w.name = "hotspot-100n";
    w.config = base_config();
    w.config.nodes = 100;
    w.config.area_w_m = 2000;
    w.config.area_h_m = 2000;
    w.config.days = 2.0;
    w.config.scheme = "interest";
    w.config.total_posts_target = 13.0 * 100;
    w.replay = sos::deploy::ReplayOptions{};
    w.graphs_per_cycle = 4;
    out.push_back(std::move(w));
  }

  // siege-24n: the disaster pack's siege cell, signed variant — 24 nodes on
  // 2x2 km, epidemic routing, 15% blackholes, 20% forgers flooding 30
  // posts/h with corrupted signatures. The security layer dominates: almost
  // every reception is a signature rejection, and the verify memo holds
  // thousands of distinct verdicts.
  {
    Workload w;
    w.name = "siege-24n";
    w.config = base_config();
    w.config.nodes = 24;
    w.config.area_w_m = 2000;
    w.config.area_h_m = 2000;
    w.config.days = 2.0;
    w.config.scheme = "epidemic";
    w.config.total_posts_target = 8.0 * 24.0 * 2.0;  // ~8 posts/user/day
    w.config.faults.adversaries.blackhole_frac = 0.15;
    w.config.faults.adversaries.forger_frac = 0.20;
    w.config.faults.adversaries.flood_posts_per_hour = 30.0;
    w.config.verify_signatures = true;
    w.replay = sos::deploy::ReplayOptions{};
    w.graphs_per_cycle = 11;
    out.push_back(std::move(w));
  }

  // community-soak: the 48n-4c community cell (4 communities on 6x6 km, 10%
  // bridge nodes, 150 m home separation) over four weeks on the strand
  // engine with 2 workers (headroom on 4 shared cores), with an in-memory
  // checkpoint round trip at every daily quiescent cut. The only workload
  // where parallel replay, checkpoint serialization and world recording do
  // real work; little transfer or rejection work.
  {
    Workload w;
    w.name = "community-soak";
    w.config = base_config();
    w.config.nodes = 48;
    w.config.area_w_m = 6000;
    w.config.area_h_m = 6000;
    w.config.days = 28.0;
    w.config.scheme = "interest";
    w.config.total_posts_target = 26.0 * 48;
    w.config.communities = 4;
    w.config.bridge_node_frac = 0.10;
    w.config.mobility.home_min_separation_m = 150.0;
    w.replay = sos::deploy::ReplayOptions{};
    w.replay.subepisode_jobs = 2;
    w.daily_checkpoints = true;
    w.graphs_per_cycle = 3;
    out.push_back(std::move(w));
  }
  return out;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

sos::graph::Digraph social_graph(const Workload& w, std::uint64_t seed, std::size_t index) {
  sos::util::Rng rng(splitmix64(splitmix64(seed) ^ static_cast<std::uint64_t>(index)));
  return sos::graph::social_community(w.config.nodes, 0.38, 0.35, rng);
}

}  // namespace sosbench
