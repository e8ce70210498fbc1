// Mobility substrate. All models precompute a piecewise-linear trajectory
// per node over the scenario horizon; position lookups interpolate. This
// substitutes for the paper's real user movement (the deployment traces are
// not public): the daily-routine model reproduces the qualitative structure
// Section VI describes — a ~11 km x 8 km city, users stationary 5-8 h/night,
// weekday gatherings at shared places, weekend dispersion.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace sos::sim {

struct Vec2 {
  double x = 0, y = 0;
};

double distance(const Vec2& a, const Vec2& b);

/// Piecewise-linear path: sorted (time, position) anchors.
class Trajectory {
 public:
  void add(util::SimTime t, Vec2 p);
  /// Position at time t (clamped to the first/last anchor).
  Vec2 at(util::SimTime t) const;
  std::size_t anchor_count() const { return points_.size(); }
  util::SimTime end_time() const;

 private:
  std::vector<std::pair<util::SimTime, Vec2>> points_;
};

/// Common interface: a fixed set of nodes with known positions over time.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual std::size_t node_count() const = 0;
  virtual Vec2 position(std::size_t node, util::SimTime t) const = 0;
};

/// Model built from explicit trajectories (also the base for all built-ins).
class TrajectoryMobility : public MobilityModel {
 public:
  explicit TrajectoryMobility(std::vector<Trajectory> trajectories)
      : trajectories_(std::move(trajectories)) {}

  std::size_t node_count() const override { return trajectories_.size(); }
  Vec2 position(std::size_t node, util::SimTime t) const override {
    return trajectories_[node].at(t);
  }
  const Trajectory& trajectory(std::size_t node) const { return trajectories_[node]; }

 private:
  std::vector<Trajectory> trajectories_;
};

struct AreaSpec {
  double width_m = 11000.0;   // paper: ~11 km
  double height_m = 8000.0;   // paper: ~8 km
};

struct RandomWaypointParams {
  AreaSpec area;
  double min_speed_mps = 0.7;
  double max_speed_mps = 2.0;
  double min_pause_s = 0.0;
  double max_pause_s = 600.0;
};

/// Classic random waypoint over a rectangle.
std::unique_ptr<TrajectoryMobility> random_waypoint(std::size_t nodes, util::SimTime horizon,
                                                    const RandomWaypointParams& params,
                                                    util::Rng& rng);

struct LevyWalkParams {
  AreaSpec area;
  double alpha = 1.6;          // power-law exponent for flight lengths
  double min_flight_m = 10.0;
  double max_flight_m = 3000.0;
  double speed_mps = 1.5;
  double max_pause_s = 900.0;
};

/// Lévy walk: heavy-tailed flight lengths, uniform directions, reflected at
/// the area boundary.
std::unique_ptr<TrajectoryMobility> levy_walk(std::size_t nodes, util::SimTime horizon,
                                              const LevyWalkParams& params, util::Rng& rng);

struct DailyRoutineParams {
  AreaSpec area;
  std::size_t hotspot_count = 5;      // shared gathering places (campus etc.)
  double hotspot_cluster_frac = 0.3;  // hotspots cluster in this central fraction
  double hotspot_radius_m = 25.0;     // dwell positions scatter within this
  int active_weekdays = 3;            // "class schedule": days/week a node goes out
  double active_attend_p = 0.92;      // attendance on scheduled days
  double offday_attend_p = 0.1;       // attendance on unscheduled weekdays
  double weekend_attend_p = 0.12;
  int min_visits_per_day = 1;
  int max_visits_per_day = 4;
  double min_dwell_s = 90 * 60.0;
  double max_dwell_s = 4 * 3600.0;
  double travel_speed_mps = 8.0;      // mixed walking/driving across the city
  double return_home_h = 18.0;        // gatherings wind down by early evening
  /// Nodes that go out every weekday (the deployment's social "centers" —
  /// paper nodes 6 and 7 — interact far more than the rest).
  std::set<std::size_t> highly_active;
  double popular_spot_p = 0.8;        // odds a visit targets the day's popular spot
  double preferred_spot_p = 0.0;      // odds a visit targets the node's own haunt
  double sleep_start_h = 23.0;        // stationary at home overnight
  double wake_h = 7.5;                // (the paper notes 5-8 h/day stationary)

  // --- multi-community structure (<= 1 keeps the classic one-city model,
  // bit-identical to the pre-community generator) ---------------------------
  /// Disjoint gathering communities: the area is tiled into a grid of K
  /// community cells, each with its own hotspot pool (`hotspot_count` spots
  /// clustered near the cell center) and home cluster. Nodes are assigned
  /// round-robin (node i -> community i mod K), so membership is balanced.
  /// Contacts then happen almost exclusively inside a community, which is
  /// what lets the strand partitioner run communities concurrently.
  std::size_t community_count = 1;
  /// Fraction of nodes that commute: a bridge node keeps its home but
  /// attends community (base + day) mod K on day `day`, carrying bundles
  /// (and causal dependencies) between communities across day boundaries.
  double bridge_node_frac = 0.0;
  /// Bridge nodes commute on weekdays only, spending weekends in their home
  /// community — the class/work framing of the weekly schedule. Off by
  /// default (classic stream: commuting every attended day).
  bool bridge_weekday_only = false;
  /// > 0: each bridge node draws one favorite second community at setup and
  /// commutes there with this probability (falling back to the day-rotation
  /// target otherwise). Recurring pairwise cross-community contact is what
  /// gives PRoPHET a stable delivery-predictability gradient to learn;
  /// pure rotation visits every community uniformly and teaches it nothing.
  /// 0 keeps the classic rotation (and the classic RNG stream).
  double bridge_favorite_p = 0.0;
  /// Homes scatter within this fraction of their community cell, leaving a
  /// margin to the neighboring cells so overnight home pairs never span
  /// communities (margin >> radio range for any realistic area).
  double community_spread_frac = 0.6;
  /// > 0: homes are rejection-sampled (bounded attempts) to keep at least
  /// this distance from every previously placed home in the same community.
  /// Two homes inside radio range form a pair that stays connected all
  /// night, every night — one de-facto household, not two users — and such
  /// pairs chain a community's days into one causal span, which is what
  /// collapses replay parallelism. Set it to a few radio ranges for
  /// community cells meant to decompose. 0 keeps the classic unconstrained
  /// placement (and the classic RNG stream).
  double home_min_separation_m = 0.0;
};

/// Human daily-routine model: every node has a home; on active days it
/// visits a random sequence of shared hotspots (creating co-location and
/// hence D2D encounters), returning home for the night. With
/// `community_count` > 1 the hotspots and homes split into K spatially
/// disjoint communities bridged only by commuting nodes.
std::unique_ptr<TrajectoryMobility> daily_routine(std::size_t nodes, util::SimTime horizon,
                                                  const DailyRoutineParams& params,
                                                  util::Rng& rng);

}  // namespace sos::sim
