#include "soak/runner.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <type_traits>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "deploy/replay.hpp"
#include "mw/schemes/prophet.hpp"
#include "mw/sos_node.hpp"
#include "soak/jsonl.hpp"
#include "util/codec.hpp"

namespace sos::soak {

namespace {

std::uint64_t read_rss_kb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages_total = 0;
  unsigned long pages_resident = 0;
  int n = std::fscanf(f, "%lu %lu", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) return 0;
  long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  return static_cast<std::uint64_t>(pages_resident) * static_cast<std::uint64_t>(page) /
         1024;
#else
  return 0;
#endif
}

MetricSnapshot make_snapshot(deploy::ReplaySession& session, std::uint64_t segment) {
  MetricSnapshot snap;
  snap.sim_time = session.sim_time();
  snap.segment = segment;
  snap.totals = session.stats_totals();
  const deploy::ScenarioResult& partial = session.partial();
  snap.posts = partial.oracle.posts().size();
  snap.deliveries = partial.oracle.deliveries().size();
  snap.carries = partial.oracle.carries().size();
  deploy::for_each_net_counter([](const char*, std::uint64_t& a, std::uint64_t b) { a = b; },
                               snap, partial);
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    mw::SosNode& node = session.node(i);
    snap.store_bundles += node.store().size();
    snap.resume_cache_entries += node.adhoc().resume_cache_size();
    snap.crl_entries += node.credentials().trust.crl_size();
    if (auto* prophet = dynamic_cast<mw::ProphetScheme*>(&node.routing().scheme())) {
      snap.prophet_entries += prophet->table_size();
    }
  }
  snap.rss_kb = read_rss_kb();
  return snap;
}

/// Calls f(key, value) for every field of a snapshot's JSONL record, in
/// record order; value is a double for the two clocks, a std::uint64_t
/// otherwise. The record writer and the predicate lookup both walk this.
template <class F>
void for_each_snapshot_field(const MetricSnapshot& s, F&& f) {
  f("sim_time", s.sim_time);
  f("sim_days", s.sim_time / 86400.0);
  f("segment", s.segment);
  f("posts", s.posts);
  f("deliveries", s.deliveries);
  f("carries", s.carries);
  // The NodeStats counter `deliveries` also counts a bundle a full store
  // evicted on insert, before the application saw it, so it can exceed the
  // oracle's count above; the key keeps the oracle meaning it always had.
  mw::for_each_stat(
      [&](std::string_view name, std::uint64_t v) {
        if (name != "deliveries") f(name, v);
      },
      s.totals);
  deploy::for_each_net_counter([&](std::string_view name, std::uint64_t v) { f(name, v); }, s);
  f("store_bundles", s.store_bundles);
  f("resume_cache_entries", s.resume_cache_entries);
  f("prophet_entries", s.prophet_entries);
  f("crl_entries", s.crl_entries);
  f("rss_kb", s.rss_kb);
}

}  // namespace

JsonObject snapshot_record(const MetricSnapshot& snap) {
  JsonObject o;
  o.str("kind", "snapshot");
  for_each_snapshot_field(snap, [&](std::string_view key, auto v) {
    if constexpr (std::is_same_v<decltype(v), double>) {
      o.num(key, v);
    } else {
      o.count(key, v);
    }
  });
  return o;
}

std::optional<double> snapshot_metric(const MetricSnapshot& snap, std::string_view name) {
  std::optional<double> found;
  for_each_snapshot_field(snap, [&](std::string_view key, auto v) {
    if (!found && key == name) found = static_cast<double>(v);
  });
  return found;
}

std::optional<StopPredicate> parse_stop(std::string_view expr, std::string* error) {
  auto fail = [error](std::string why) -> std::optional<StopPredicate> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  for (std::string_view op : {">=", "<="}) {
    std::size_t at = expr.find(op);
    if (at == std::string_view::npos) continue;
    StopPredicate p{std::string(expr.substr(0, at)), std::string(op), 0};
    if (!snapshot_metric(MetricSnapshot{}, p.metric)) {
      return fail("unknown metric '" + p.metric + "'");
    }
    std::string value(expr.substr(at + op.size()));
    char* end = nullptr;
    p.value = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !std::isfinite(p.value)) {
      return fail("'" + value + "' is not a finite number");
    }
    return p;
  }
  return fail("no >= or <= operator");
}

SoakResult Runner::run(const deploy::ScenarioWorld& world) {
  deploy::ReplaySession session(opts_.config, world, opts_.replay);
  return drive(session, world, 0);
}

SoakResult Runner::resume(const deploy::ScenarioWorld& world, const Checkpoint& ckpt) {
  SoakResult result;
  if (ckpt.world_digest != world_digest(opts_.config, world)) {
    result.stop_reason =
        "resume-rejected: checkpoint world digest does not match this config/world";
    return result;
  }
  deploy::ReplaySession session(opts_.config, world, opts_.replay);
  util::Reader r{util::ByteView(ckpt.payload)};
  if (!session.load_state(r)) {
    result.stop_reason = "resume-rejected: malformed checkpoint payload";
    return result;
  }
  return drive(session, world, ckpt.segment);
}

SoakResult Runner::drive(deploy::ReplaySession& session,
                         const deploy::ScenarioWorld& world,
                         std::uint64_t start_segment) {
  SoakResult result;
  result.segments = start_segment;

  // A predicate that can never hold would let the run go on to the horizon
  // unnoticed; reject it before replaying anything.
  for (const StopPredicate& p : opts_.stop.predicates) {
    if (!snapshot_metric(MetricSnapshot{}, p.metric) || (p.op != ">=" && p.op != "<=")) {
      result.stop_reason = "predicate-rejected: cannot evaluate '" + p.metric + p.op + "'";
      return result;
    }
  }

  if (!opts_.jsonl_path.empty()) {
    std::filesystem::path parent = std::filesystem::path(opts_.jsonl_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
  }
  JsonlWriter log(opts_.jsonl_path.empty() ? "/dev/null" : opts_.jsonl_path);
  const bool logging = !opts_.jsonl_path.empty() && log.ok();

  AnomalyDetector detector(opts_.anomaly);
  const std::array<std::uint8_t, 32> digest = world_digest(opts_.config, world);
  const auto wall_start = std::chrono::steady_clock::now();

  std::vector<util::SimTime> cuts = session.quiescent_cuts(opts_.min_gap_s);
  cuts.push_back(session.horizon());

  double next_snapshot = session.sim_time() + opts_.snapshot_interval_s;
  double last_checkpoint = session.sim_time();

  std::size_t ci = 0;
  while (ci < cuts.size() && cuts[ci] <= session.sim_time()) ++ci;

  while (session.sim_time() < session.horizon() && result.stop_reason.empty()) {
    // Advance to the first eligible cut at or past the snapshot cadence
    // (always at least one cut forward, so progress is guaranteed).
    std::size_t target = ci;
    while (target + 1 < cuts.size() && cuts[target] < next_snapshot) ++target;
    session.advance_to(cuts[target]);
    ci = target + 1;
    ++result.segments;
    next_snapshot = session.sim_time() + opts_.snapshot_interval_s;

    MetricSnapshot snap = make_snapshot(session, result.segments);
    result.snapshots.push_back(snap);
    if (logging) log.write(snapshot_record(snap));

    if (opts_.anomaly_detection) {
      std::vector<Anomaly> found = detector.observe(snap);
      for (const Anomaly& a : found) {
        result.anomalies.push_back(a);
        if (logging) {
          JsonObject o;
          o.str("kind", "anomaly")
              .str("metric", a.metric)
              .str("anomaly", a.kind)
              .str("detail", a.detail)
              .num("sim_time", a.sim_time);
          log.write(o);
        }
      }
      if (!found.empty()) {
        result.stop_reason = "anomaly: " + found.front().detail;
        break;
      }
    }

    for (const StopPredicate& p : opts_.stop.predicates) {
      double v = *snapshot_metric(snap, p.metric);
      bool hit = (p.op == ">=" && v >= p.value) || (p.op == "<=" && v <= p.value);
      if (hit) {
        std::ostringstream os;
        os << "predicate: " << p.metric << " " << p.op << " " << p.value
           << " (observed " << v << ")";
        result.stop_reason = os.str();
        break;
      }
    }
    if (!result.stop_reason.empty()) break;

    if (opts_.stop.wall_budget_s > 0) {
      double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                     wall_start)
                           .count();
      if (elapsed >= opts_.stop.wall_budget_s) {
        result.stop_reason = "wall-budget";
        break;
      }
    }

    // Checkpoint at this quiescent cut if due (never at the horizon — a
    // finished run has nothing left to resume).
    if (!opts_.checkpoint_dir.empty() && session.sim_time() < session.horizon() &&
        session.sim_time() >= last_checkpoint + opts_.checkpoint_interval_s) {
      Checkpoint c;
      c.segment = result.segments;
      c.sim_time = session.sim_time();
      c.world_digest = digest;
      util::Writer w;
      session.save_state(w);
      c.payload = w.take();
      std::string error;
      if (CheckpointStore(opts_.checkpoint_dir).save(c, &error)) {
        ++result.checkpoints_written;
        last_checkpoint = session.sim_time();
        if (logging) {
          JsonObject o;
          o.str("kind", "checkpoint")
              .count("segment", c.segment)
              .num("sim_time", c.sim_time)
              .count("payload_bytes", c.payload.size());
          log.write(o);
        }
      } else if (logging) {
        JsonObject o;
        o.str("kind", "checkpoint-error").str("detail", error).num("sim_time", c.sim_time);
        log.write(o);
      }
    }
  }

  result.sim_time = session.sim_time();
  result.completed = result.sim_time >= session.horizon() && result.stop_reason.empty();
  if (result.completed) result.stop_reason = "horizon";
  result.scenario = session.finish();

  if (logging) {
    JsonObject o;
    o.str("kind", "result")
        .str("stop_reason", result.stop_reason)
        .boolean("completed", result.completed)
        .num("sim_time", result.sim_time)
        .count("segments", result.segments)
        .count("checkpoints", result.checkpoints_written)
        .count("anomalies", result.anomalies.size())
        .count("deliveries", result.scenario.oracle.deliveries().size());
    log.write(o);
  }
  return result;
}

}  // namespace sos::soak
