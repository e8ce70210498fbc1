#include "soak/anomaly.hpp"

#include <algorithm>
#include <sstream>

namespace sos::soak {

namespace {
std::string fmt_days(double sim_time) {
  std::ostringstream os;
  os.precision(3);
  os << (sim_time / 86400.0) << "d";
  return os.str();
}
}  // namespace

void AnomalyDetector::track_rate(const std::string& name, std::uint64_t value,
                                 double hours, double sim_time,
                                 std::vector<Anomaly>& out) {
  CounterTrack& t = tracks_[name];
  if (!t.primed) {
    t.primed = true;
    t.last = value;
    return;
  }
  std::uint64_t delta = value >= t.last ? value - t.last : 0;
  t.last = value;
  // Snapshots land on quiescent cuts, so interval lengths vary severalfold;
  // comparing raw deltas would flag every long interval as a spike. Compare
  // per-sim-hour rates instead (the absolute floor stays on the raw delta so
  // a short interval's small-number noise cannot trip it).
  if (hours <= 0) return;
  double rate = static_cast<double>(delta) / hours;
  if (t.rates.size() >= config_.window) {
    // Baseline on the window's PEAK rate, not its mean: duty-cycled
    // workloads (quiet nights, weekend bridge lulls) drag a mean down by
    // the duty cycle itself — the first month soak read every Monday
    // commute backlog flush as an 8.8x "spike" over a weekend-lulled mean.
    // A genuine retry storm or feedback loop exceeds even the recent peak.
    double peak = *std::max_element(t.rates.begin(), t.rates.end());
    if (delta > config_.rate_spike_min && rate > config_.rate_spike_factor * peak) {
      std::ostringstream os;
      os << name << " jumped to " << rate << "/h (" << delta << " over "
         << hours << "h) at " << fmt_days(sim_time) << " vs rolling-window peak "
         << peak << "/h over the last " << t.rates.size() << " intervals (factor "
         << (peak > 0 ? rate / peak : 0) << ", threshold "
         << config_.rate_spike_factor << ")";
      out.push_back({name, "rate-spike", os.str(), sim_time});
    }
    t.rates.pop_front();
  }
  t.rates.push_back(rate);
}

void AnomalyDetector::track_stall(const std::string& name, std::uint64_t value,
                                  std::uint64_t frames_delta, double sim_time,
                                  std::vector<Anomaly>& out) {
  CounterTrack& t = tracks_["stall:" + name];
  if (!t.primed) {
    t.primed = true;
    t.last = value;
    return;
  }
  std::uint64_t delta = value >= t.last ? value - t.last : 0;
  t.last = value;
  // Only intervals with traffic count toward a stall: a quiet stretch of the
  // trace legitimately moves nothing.
  if (delta == 0 && frames_delta > 0) {
    ++t.zero_run;
  } else if (delta > 0) {
    t.zero_run = 0;
    t.stalled = false;
  }
  if (t.zero_run >= config_.stall_intervals && !t.stalled) {
    t.stalled = true;
    std::ostringstream os;
    os << name << " has not advanced for " << t.zero_run
       << " consecutive intervals ending at " << fmt_days(sim_time)
       << " while frames kept flowing (stuck at " << value << ")";
    out.push_back({name, "stall", os.str(), sim_time});
  }
}

std::vector<Anomaly> AnomalyDetector::observe(const MetricSnapshot& snap) {
  std::vector<Anomaly> out;

  std::uint64_t frames_delta =
      primed_ && snap.wire_frames >= last_frames_ ? snap.wire_frames - last_frames_ : 0;
  double hours = primed_ ? (snap.sim_time - last_sim_time_) / 3600.0 : 0;

  // Every middleware counter is rate-watched: a retry storm or feedback loop
  // can start in any layer, the security layer included.
  mw::for_each_stat(
      [&](const char* name, std::uint64_t v) { track_rate(name, v, hours, snap.sim_time, out); },
      snap.totals);

  if (primed_) {
    track_stall("bundles_sent", snap.totals.bundles_sent, frames_delta, snap.sim_time, out);
    track_stall("deliveries", snap.totals.deliveries, frames_delta, snap.sim_time, out);
    track_stall("sessions_established", snap.totals.sessions_established, frames_delta,
                snap.sim_time, out);
  }

  if (snap.rss_kb > 0) {
    // Normalize RSS by the resident bundle copies the process is supposed to
    // be holding: a month-scale soak's stores legitimately fill toward
    // capacity for weeks (the first month soak grew 59k copies by day 12 at a
    // flat ~1.3 KiB each), so raw RSS rises linearly the whole run and a raw
    // window-min baseline trips on healthy fill. The leak signature is memory
    // outpacing resident state — RSS-per-bundle climbing — which stays flat
    // or falls during fill. The raw min_kb guard stays on absolute growth so
    // early-run overhead-dominated ratios cannot trip it.
    double per_bundle = static_cast<double>(snap.rss_kb) /
                        static_cast<double>(1 + snap.store_bundles);
    if (rss_window_.size() >= config_.window) {
      double low_norm = rss_window_.front().first;
      std::uint64_t low_raw = rss_window_.front().second;
      for (const auto& [norm, raw] : rss_window_) {
        low_norm = std::min(low_norm, norm);
        low_raw = std::min(low_raw, raw);
      }
      if (snap.rss_kb > config_.rss_growth_min_kb + low_raw &&
          per_bundle > config_.rss_growth_factor * low_norm) {
        std::ostringstream os;
        os << "rss grew to " << snap.rss_kb << " KiB (" << per_bundle
           << " KiB per resident bundle, " << snap.store_bundles
           << " stored) at " << fmt_days(snap.sim_time)
           << " vs rolling-window minimum " << low_norm
           << " KiB/bundle (factor "
           << (low_norm > 0 ? per_bundle / low_norm : 0) << ", threshold "
           << config_.rss_growth_factor << ")";
        out.push_back({"rss_kb", "rss-growth", os.str(), snap.sim_time});
      }
      rss_window_.pop_front();
    }
    rss_window_.push_back({per_bundle, snap.rss_kb});
  }

  last_frames_ = snap.wire_frames;
  last_sim_time_ = snap.sim_time;
  primed_ = true;
  return out;
}

}  // namespace sos::soak
