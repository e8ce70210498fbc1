// Rolling-window anomaly detection over soak metric snapshots.
//
// A month-scale run emits a snapshot every few sim-hours; this watches the
// stream for three families of time-scale bugs that short benchmark runs
// never expose:
//
//   rate-spike   — a counter's per-sim-hour rate jumps far above its
//                  rolling-window PEAK rate (retry storm, feedback loop).
//                  Rates, not raw deltas: snapshots land on quiescent cuts,
//                  so interval lengths legitimately vary severalfold and a
//                  long interval would otherwise read as a spike. Peak, not
//                  mean: duty-cycled workloads (nights, weekend bridge
//                  lulls) drag a mean baseline down by the duty cycle,
//   stall        — a liveness counter stops moving for several consecutive
//                  intervals while traffic is still flowing (wedged state
//                  machine, leaked handle),
//   rss-growth   — resident set PER RESIDENT BUNDLE keeps climbing past a
//                  factor of its rolling-window minimum (unbounded cache,
//                  leak). Normalized, not raw: a month-scale run's stores
//                  legitimately fill toward capacity for weeks, so raw RSS
//                  grows linearly the whole time — the leak signature is
//                  memory outpacing the state the process is supposed to
//                  hold.
//
// Detection halts the run with a pointed report naming the metric, the
// window statistics, and the sim time — not a bare nonzero exit.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "deploy/scenario.hpp"
#include "mw/stats.hpp"

namespace sos::soak {

/// One per-interval metric snapshot, written to the JSONL log and fed to
/// the detector. Counters are cumulative; the detector differences them.
struct MetricSnapshot {
  double sim_time = 0;
  std::uint64_t segment = 0;
  mw::NodeStats totals;               // summed over the fleet
  std::uint64_t posts = 0;            // oracle: posts recorded
  std::uint64_t deliveries = 0;       // oracle: deliveries recorded
  std::uint64_t carries = 0;          // oracle: carry records
  SOS_NET_COUNTERS(SOS_NET_COUNTER_MEMBER)  // the run's network counters so far
  std::uint64_t store_bundles = 0;    // bundles resident across all stores
  std::uint64_t resume_cache_entries = 0;
  std::uint64_t prophet_entries = 0;  // PRoPHET predictability rows (0 if n/a)
  std::uint64_t crl_entries = 0;      // TrustStore CRL entries across fleet
  std::uint64_t rss_kb = 0;           // process resident set (0 if unknown)
};

struct AnomalyConfig {
  std::size_t window = 8;             // rolling window length, in intervals
  double rate_spike_factor = 8.0;     // rate/h > factor * window peak rate/h
  std::uint64_t rate_spike_min = 1000;  // ...and raw delta > this floor
  std::size_t stall_intervals = 6;    // zero-delta intervals before a stall
  // rss/(1+store_bundles) > factor * window min of the same ratio. 2.0:
  // allocator arenas grow in ~20 MiB steps, which jitters the ratio up to
  // ~1.4x on a filling heap; a leak compounds past 2x within a window.
  double rss_growth_factor = 2.0;
  std::uint64_t rss_growth_min_kb = 50 * 1024;  // ...and raw rss grew this much
};

struct Anomaly {
  std::string metric;  // e.g. "sessions_established"
  std::string kind;    // "rate-spike" | "stall" | "rss-growth"
  std::string detail;  // pointed human-readable report
  double sim_time = 0;
};

/// Feed snapshots in order; each observe() returns the anomalies newly
/// detected at that snapshot (usually empty). Stalls are reported once per
/// metric per stall episode, not once per interval.
class AnomalyDetector {
 public:
  explicit AnomalyDetector(AnomalyConfig config) : config_(config) {}

  std::vector<Anomaly> observe(const MetricSnapshot& snap);

 private:
  struct CounterTrack {
    std::deque<double> rates;   // rolling window of per-sim-hour rates
    std::uint64_t last = 0;
    std::size_t zero_run = 0;   // consecutive zero-delta intervals with traffic
    bool stalled = false;       // stall already reported for this episode
    bool primed = false;        // saw the first snapshot (no delta yet)
  };

  void track_rate(const std::string& name, std::uint64_t value, double hours,
                  double sim_time, std::vector<Anomaly>& out);
  void track_stall(const std::string& name, std::uint64_t value,
                   std::uint64_t frames_delta, double sim_time,
                   std::vector<Anomaly>& out);

  AnomalyConfig config_;
  std::map<std::string, CounterTrack> tracks_;
  // (rss per resident bundle, raw rss) per interval.
  std::deque<std::pair<double, std::uint64_t>> rss_window_;
  std::uint64_t last_frames_ = 0;
  double last_sim_time_ = 0;
  bool primed_ = false;
};

}  // namespace sos::soak
