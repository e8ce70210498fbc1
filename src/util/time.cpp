#include "util/time.hpp"

#include <cstdio>

namespace sos::util {

std::string format_time(SimTime t) {
  auto day = static_cast<long>(t / 86400.0);
  double tod = time_of_day(t);
  int hh = static_cast<int>(tod / 3600.0);
  int mm = static_cast<int>(tod / 60.0) % 60;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "d%ld %02d:%02d", day, hh, mm);
  return buf;
}

std::string format_duration(SimTime dt) {
  char buf[32];
  if (dt < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.0fs", dt);
  } else if (dt < 7200.0) {
    std::snprintf(buf, sizeof(buf), "%.1fm", dt / 60.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fh", dt / 3600.0);
  }
  return buf;
}

}  // namespace sos::util
