#include "host.hpp"

#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <string>

#include "trace.hpp"

namespace sosbench {

std::int64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return -1;
  // cpu user nice system idle iowait irq softirq steal ...
  std::istringstream fields(line.substr(4));
  std::int64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> v)) return -1;
  }
  return v;
}

double reference_loop_s(std::uint64_t* sink) {
  Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 0x2545f4914f6cdd1dULL;
  }
  *sink += acc;
  return seconds_between(t0, Clock::now());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace sosbench
