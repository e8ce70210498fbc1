#include "sim/mobility.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

namespace sos::sim {

double distance(const Vec2& a, const Vec2& b) {
  double dx = a.x - b.x, dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

void Trajectory::add(util::SimTime t, Vec2 p) {
  if (!points_.empty() && t < points_.back().first) t = points_.back().first;
  points_.emplace_back(t, p);
}

HeldPosition Trajectory::held_at(util::SimTime t) const {
  constexpr util::SimTime kForever = std::numeric_limits<util::SimTime>::infinity();
  if (points_.empty()) return {{}, kForever};
  if (t <= points_.front().first) return {points_.front().second, points_.front().first};
  if (t >= points_.back().first) return {points_.back().second, kForever};
  auto it = std::upper_bound(points_.begin(), points_.end(), t,
                             [](util::SimTime v, const auto& p) { return v < p.first; });
  const auto& [t1, p1] = *it;
  const auto& [t0, p0] = *(it - 1);
  if (t1 <= t0) return {p0, t};
  double f = (t - t0) / (t1 - t0);
  // Between two bitwise-equal anchors every time in [t0, t1) evaluates the
  // same expression with a +0 step, so the result repeats exactly.
  const bool constant = std::bit_cast<std::uint64_t>(p0.x) == std::bit_cast<std::uint64_t>(p1.x) &&
                        std::bit_cast<std::uint64_t>(p0.y) == std::bit_cast<std::uint64_t>(p1.y);
  return {{p0.x + (p1.x - p0.x) * f, p0.y + (p1.y - p0.y) * f}, constant ? t1 : t};
}

util::SimTime Trajectory::end_time() const {
  return points_.empty() ? 0.0 : points_.back().first;
}

namespace {
Vec2 random_point(const AreaSpec& area, util::Rng& rng) {
  return {rng.uniform(0, area.width_m), rng.uniform(0, area.height_m)};
}

// Guards for degenerate waypoint parameters: a zero speed draw (e.g.
// min_speed_mps == max_speed_mps == 0) would make travel infinite, and a
// zero-distance leg with zero pause (e.g. a 0x0 area) would never advance
// the clock, spinning the generation loop forever.
constexpr double kMinSpeedMps = 1e-3;
constexpr double kMinAdvanceS = 1e-3;
}  // namespace

std::unique_ptr<TrajectoryMobility> random_waypoint(std::size_t nodes, util::SimTime horizon,
                                                    const RandomWaypointParams& params,
                                                    util::Rng& rng) {
  std::vector<Trajectory> trajectories(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    Trajectory& tr = trajectories[i];
    util::SimTime t = 0;
    Vec2 pos = random_point(params.area, rng);
    tr.add(t, pos);
    double skip = kMinAdvanceS;
    while (t < horizon) {
      Vec2 target = random_point(params.area, rng);
      double speed = std::max(rng.uniform(params.min_speed_mps, params.max_speed_mps),
                              kMinSpeedMps);
      double travel = distance(pos, target) / speed;
      double pause = rng.uniform(params.min_pause_s, params.max_pause_s);
      if (travel + pause < kMinAdvanceS) {  // degenerate leg: skip it, keep moving
        // Double the skip while legs stay degenerate (e.g. a 0x0 area) so a
        // permanently-degenerate config costs O(log horizon), not horizon/ms.
        t += skip;
        skip = std::min(skip * 2, horizon);
        continue;
      }
      skip = kMinAdvanceS;
      t += travel;
      tr.add(t, target);
      pos = target;
      if (pause > 0) {
        t += pause;
        tr.add(t, pos);
      }
    }
  }
  return std::make_unique<TrajectoryMobility>(std::move(trajectories));
}

std::unique_ptr<TrajectoryMobility> daily_routine(std::size_t nodes, util::SimTime horizon,
                                                  const DailyRoutineParams& params,
                                                  util::Rng& rng) {
  const AreaSpec& area = params.area;
  const std::size_t communities = std::max<std::size_t>(params.community_count, 1);

  // Community geometry: K cells on a near-square grid over the area. With
  // one community the single cell is the whole area and the generator below
  // consumes draws in exactly the pre-community order (bit-identical
  // trajectories for any pre-community config).
  const std::size_t grid_x =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(communities))));
  const std::size_t grid_y = (communities + grid_x - 1) / grid_x;
  const double cell_w = area.width_m / static_cast<double>(grid_x);
  const double cell_h = area.height_m / static_cast<double>(grid_y);
  std::vector<Vec2> centers(communities);
  for (std::size_t c = 0; c < communities; ++c) {
    centers[c] = {(static_cast<double>(c % grid_x) + 0.5) * cell_w,
                  (static_cast<double>(c / grid_x) + 0.5) * cell_h};
  }

  // Per-community hotspot pools, clustered near each community's center
  // (campus/downtown) so different members' visits overlap.
  std::vector<std::vector<Vec2>> pools(communities);
  for (std::size_t c = 0; c < communities; ++c) {
    double spread_x = cell_w * params.hotspot_cluster_frac;
    double spread_y = cell_h * params.hotspot_cluster_frac;
    for (std::size_t h = 0; h < params.hotspot_count; ++h) {
      pools[c].push_back({centers[c].x + rng.uniform(-spread_x, spread_x) / 2,
                          centers[c].y + rng.uniform(-spread_y, spread_y) / 2});
    }
  }

  std::vector<Trajectory> trajectories(nodes);
  std::vector<std::vector<Vec2>> homes(communities);  // for separation sampling
  for (std::size_t i = 0; i < nodes; ++i) {
    Trajectory& tr = trajectories[i];
    // Balanced round-robin membership; bridge nodes rotate through all
    // communities day by day (drawn only in multi-community mode so the
    // classic path's stream is untouched).
    const std::size_t base_comm = i % communities;
    const bool bridge = communities > 1 && rng.chance(params.bridge_node_frac);
    // Favorite second community for probabilistic bridge schedules; drawn
    // only when the feature is on so the default stream is untouched.
    std::size_t favorite_offset = 0;
    if (bridge && params.bridge_favorite_p > 0) favorite_offset = 1 + rng.below(communities - 1);
    auto draw_home = [&]() -> Vec2 {
      if (communities == 1) return random_point(area, rng);
      double home_x = cell_w * params.community_spread_frac;
      double home_y = cell_h * params.community_spread_frac;
      return {centers[base_comm].x + rng.uniform(-home_x, home_x) / 2,
              centers[base_comm].y + rng.uniform(-home_y, home_y) / 2};
    };
    Vec2 home = draw_home();
    if (params.home_min_separation_m > 0) {
      auto too_close = [&](const Vec2& p) {
        for (const Vec2& other : homes[base_comm])
          if (distance(p, other) < params.home_min_separation_m) return true;
        return false;
      };
      // Bounded rejection: a saturated community keeps the last draw rather
      // than spin (determinism and termination over perfect spacing).
      for (int attempt = 0; attempt < 63 && too_close(home); ++attempt) home = draw_home();
    }
    homes[base_comm].push_back(home);
    Vec2 pos = home;
    tr.add(0, home);
    // Weekly schedule: the node reliably goes out on `active_weekdays` fixed
    // days (a class/work schedule). Any two 3-of-5 schedules overlap in at
    // least one day, so every pair has a recurring meeting opportunity with
    // a 1-3 day gap — the mechanism behind the paper's multi-hour delays.
    std::vector<int> weekdays{0, 1, 2, 3, 4};
    rng.shuffle(weekdays);
    std::set<int> active(weekdays.begin(),
                         weekdays.begin() + std::min<std::size_t>(
                                                static_cast<std::size_t>(params.active_weekdays),
                                                weekdays.size()));
    int total_days = static_cast<int>(std::ceil(horizon / util::days(1)));
    for (int day = 0; day < total_days; ++day) {
      util::SimTime day_start = util::days(day);
      bool weekend = util::is_weekend(day_start);
      double attend_p;
      bool hyper = params.highly_active.count(i) > 0;
      if (weekend) {
        attend_p = hyper ? 2 * params.weekend_attend_p : params.weekend_attend_p;
      } else if (hyper) {
        attend_p = params.active_attend_p;  // out every weekday
      } else {
        attend_p = active.count(util::day_of_week(day_start)) > 0 ? params.active_attend_p
                                                                  : params.offday_attend_p;
      }
      if (!rng.chance(attend_p)) continue;  // stays home all day
      // Commuters attend a different community each day; everyone else
      // stays with their own. The day's hotspot choices below draw from
      // this pool only, so a bridge node is the sole carrier of state
      // between communities.
      std::size_t day_comm = base_comm;
      if (bridge && !(params.bridge_weekday_only && weekend)) {
        day_comm = (base_comm + static_cast<std::size_t>(day)) % communities;
        // With a favorite second community, most commuting days target it;
        // the rotation target is the fallback. The extra draw happens only
        // for bridge nodes with the feature on (classic stream untouched).
        if (params.bridge_favorite_p > 0 && rng.chance(params.bridge_favorite_p)) {
          day_comm = (base_comm + favorite_offset) % communities;
        }
      }
      const std::vector<Vec2>& hotspots = pools[day_comm];

      // Wake and head out.
      util::SimTime t = day_start + util::hours(params.wake_h) + rng.uniform(0, util::hours(1.5));
      tr.add(t, pos);
      int visits = params.min_visits_per_day +
                   static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(params.max_visits_per_day -
                                                  params.min_visits_per_day + 1)));
      util::SimTime home_by =
          day_start + util::hours(params.return_home_h) + rng.uniform(0, util::hours(2.5));
      for (int v = 0; v < visits && t < home_by; ++v) {
        // Crowds synchronize: part of the time everyone heads to the same
        // "popular" spot of the current 3-hour block, which is what makes
        // distinct users' visits overlap (and D2D encounters happen).
        // Spot choice mixes three habits, which makes pair meeting rates
        // heterogeneous the way a real friend group's are: (a) the node's
        // own haunt (same-department friends meet almost daily), (b) the
        // day's popular gathering place (everyone overlaps now and then),
        // (c) anywhere.
        std::size_t block = static_cast<std::size_t>(t / util::days(1));
        // Salted per community so concurrent communities pick independent
        // popular spots (salt 0 for community 0 keeps the classic stream).
        std::size_t popular = (block * 2654435761u + day_comm * 1099087573u) % hotspots.size();
        std::size_t preferred = i % hotspots.size();
        double draw = rng.uniform();
        std::size_t choice;
        if (draw < params.preferred_spot_p) {
          choice = preferred;
        } else if (draw < params.preferred_spot_p + params.popular_spot_p) {
          choice = popular;
        } else {
          choice = rng.below(hotspots.size());
        }
        const Vec2& spot = hotspots[choice];
        Vec2 dwell_pos = {spot.x + rng.uniform(-params.hotspot_radius_m, params.hotspot_radius_m),
                          spot.y + rng.uniform(-params.hotspot_radius_m, params.hotspot_radius_m)};
        t += distance(pos, dwell_pos) / params.travel_speed_mps;
        tr.add(t, dwell_pos);
        pos = dwell_pos;
        double dwell = rng.uniform(params.min_dwell_s, params.max_dwell_s);
        t = std::min(t + dwell, home_by);
        tr.add(t, pos);
      }
      // Return home for the night.
      t += distance(pos, home) / params.travel_speed_mps;
      tr.add(t, home);
      pos = home;
    }
    tr.add(horizon, pos);
  }
  return std::make_unique<TrajectoryMobility>(std::move(trajectories));
}

}  // namespace sos::sim
