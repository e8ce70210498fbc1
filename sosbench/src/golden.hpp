// Golden fingerprints (replay_run.hpp: fingerprint()) of each workload's
// canary input: social graph 0 of the default seed, which every run replays
// whatever its --seed. A pure performance change leaves these unchanged; a
// change to simulated behaviour must update them, and says so.
#pragma once

namespace sosbench {

struct Golden {
  const char* workload;
  const char* fingerprint;
};

inline constexpr Golden kGolden[] = {
    {"hotspot-100n",
     "3498 3498 3038 460 460 0 6076 0 0 143749 143749 0 0 110767 110767 0 0 92819 17948 0 0 92819 17948 17948 2293 1342 0 143749 51623788 1342 17948 17948"},
    {"siege-24n",
     "202 202 182 20 20 0 364 0 0 34759 34759 0 0 25856 25856 22768 0 1885 23971 0 0 1885 1203 519 146 9009 0 34759 9148041 394 519 1203"},
    {"community-soak",
     "3760 3760 3164 596 596 0 6328 0 0 50462 50462 0 0 34756 34756 0 0 13657 21099 0 0 13657 21099 21099 2589 1254 0 50462 16353715 1254 21099 21099"},
};

}  // namespace sosbench
