// Simulation time helpers. Simulated time is seconds (double) since the
// scenario epoch; these helpers keep workload code readable (hours(24),
// day_of_week, is_weekend, hh:mm formatting for reports).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace sos::util {

using SimTime = double;  // seconds since scenario start

constexpr SimTime seconds(double s) { return s; }
constexpr SimTime minutes(double m) { return m * 60.0; }
constexpr SimTime hours(double h) { return h * 3600.0; }
constexpr SimTime days(double d) { return d * 86400.0; }

/// 0 = Monday ... 6 = Sunday (scenarios start on a Monday 00:00).
inline int day_of_week(SimTime t) {
  auto d = static_cast<std::int64_t>(std::floor(t / 86400.0));
  return static_cast<int>(((d % 7) + 7) % 7);
}

inline bool is_weekend(SimTime t) {
  int dow = day_of_week(t);
  return dow == 5 || dow == 6;
}

/// Seconds since local midnight of the current simulated day.
inline double time_of_day(SimTime t) {
  double d = std::fmod(t, 86400.0);
  return d < 0 ? d + 86400.0 : d;
}

/// "d2 07:30" style rendering for reports.
std::string format_time(SimTime t);

/// "37.2h" style rendering of a duration.
std::string format_duration(SimTime dt);

}  // namespace sos::util
