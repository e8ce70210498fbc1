// Host-noise diagnostics recorded beside every run. They are reported only,
// so a slow host period is visible in the data; nothing drops, retries or
// rescales a run because of them.
#pragma once

#include <cstdint>

namespace sosbench {

/// Cumulative steal ticks of all CPUs from /proc/stat (-1 if unreadable).
std::int64_t steal_ticks();

/// Wall time of a fixed register-only reference loop (40-60 ms on a
/// 4-core x86-64 VM). It tracks CPU speed and steal, not memory contention.
/// `*sink` receives the loop's result so it cannot be optimized away.
double reference_loop_s(std::uint64_t* sink);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace sosbench
