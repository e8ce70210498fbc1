// sos_soak: month-scale soak driver over the replay engines.
//
// Records (or replays) the community-structured scenario and drives it
// through soak::Runner — metric snapshots to a JSONL log, checkpoints at
// quiescent cuts, rolling-window anomaly detection. The default cell is the
// sweep grid's 48n-4c community scenario, scaled to the requested horizon.
//
//   sos_soak --days 30 --engine strand --jobs 4 --jsonl soak.jsonl --checkpoint-dir ckpts
//   sos_soak --resume --checkpoint-dir ckpts --jsonl soak.jsonl
//
// Exit status: 0 = ran to its stop condition (horizon, predicate, wall
// budget), 2 = halted on an anomaly, 1 = usage or I/O error (a malformed or
// out-of-range number included).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

#include "deploy/scenario.hpp"
#include "mw/routing.hpp"
#include "soak/runner.hpp"

using namespace sos;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: sos_soak [options]\n"
               "  --days D                simulated horizon, > 0 (default 30)\n"
               "  --nodes N               fleet size (default 48)\n"
               "  --communities C         mobility communities (default 4)\n"
               "  --scheme S              routing scheme (default interest)\n"
               "  --seed X                world seed (default 42)\n"
               "  --engine E              mono | strand (default strand)\n"
               "  --jobs J                worker threads for the engine, >= 1 with strand\n"
               "                          (default 4)\n"
               "  --snapshot-interval-s T metric snapshot cadence (default 21600)\n"
               "  --checkpoint-dir DIR    write checkpoints here (default off)\n"
               "  --checkpoint-interval-s T  checkpoint cadence (default 86400)\n"
               "  --resume                resume from latest checkpoint in --checkpoint-dir\n"
               "  --jsonl PATH            append metric snapshots to this JSONL file\n"
               "  --wall-budget-s W       halt after W wall seconds (default unlimited)\n"
               "  --stop EXPR             halt when EXPR holds, e.g. 'deliveries>=1000'\n"
               "                          (any snapshot JSONL key; unknown keys are rejected)\n"
               "  --min-gap-s G           minimum quiescent gap for a cut (default 60)\n"
               "  --no-anomaly            disable anomaly detection\n");
}

[[noreturn]] void bad_value(const char* flag, const char* text, const char* want) {
  std::fprintf(stderr, "sos_soak: bad %s value '%s' (want %s)\n", flag, text, want);
  std::exit(1);
}

// Numeric flag values parse strictly: the whole token, no sign or blanks
// around it, in range. A typo must stop the run, not become 0.
template <class T>
T parse_number(const char* flag, const char* text, T min, const char* want) {
  T value{};
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value < min) bad_value(flag, text, want);
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) bad_value(flag, text, want);
  }
  return value;
}

double positive_number(const char* flag, const char* text) {
  double value = parse_number(flag, text, 0.0, "a finite number > 0");
  if (value == 0.0) bad_value(flag, text, "a finite number > 0");
  return value;
}

double nonnegative_number(const char* flag, const char* text) {
  return parse_number(flag, text, 0.0, "a finite number >= 0");
}

std::size_t count_at_least(const char* flag, const char* text, std::size_t min) {
  const std::string want = "an integer >= " + std::to_string(min);
  return parse_number<std::size_t>(flag, text, min, want.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  double days = 30.0;
  std::size_t nodes = 48;
  std::size_t communities = 4;
  std::string scheme = "interest";
  std::uint64_t seed = 42;
  std::string engine = "strand";
  std::size_t jobs = 4;
  bool do_resume = false;

  soak::SoakOptions opts;

  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "sos_soak: %s needs a value\n", argv[i]);
      usage();
      std::exit(1);
    }
    return argv[i + 1];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--days") == 0) {
      days = positive_number(arg, need_value(i++));
    } else if (std::strcmp(arg, "--nodes") == 0) {
      nodes = count_at_least(arg, need_value(i++), 1);
    } else if (std::strcmp(arg, "--communities") == 0) {
      communities = count_at_least(arg, need_value(i++), 1);
    } else if (std::strcmp(arg, "--scheme") == 0) {
      scheme = need_value(i++);
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = parse_number<std::uint64_t>(arg, need_value(i++), 0, "an unsigned integer");
    } else if (std::strcmp(arg, "--engine") == 0) {
      engine = need_value(i++);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      jobs = count_at_least(arg, need_value(i++), 0);
    } else if (std::strcmp(arg, "--snapshot-interval-s") == 0) {
      opts.snapshot_interval_s = positive_number(arg, need_value(i++));
    } else if (std::strcmp(arg, "--checkpoint-dir") == 0) {
      opts.checkpoint_dir = need_value(i++);
    } else if (std::strcmp(arg, "--checkpoint-interval-s") == 0) {
      opts.checkpoint_interval_s = positive_number(arg, need_value(i++));
    } else if (std::strcmp(arg, "--resume") == 0) {
      do_resume = true;
    } else if (std::strcmp(arg, "--jsonl") == 0) {
      opts.jsonl_path = need_value(i++);
    } else if (std::strcmp(arg, "--wall-budget-s") == 0) {
      opts.stop.wall_budget_s = nonnegative_number(arg, need_value(i++));
    } else if (std::strcmp(arg, "--stop") == 0) {
      std::string error;
      std::optional<soak::StopPredicate> p = soak::parse_stop(need_value(i++), &error);
      if (!p) {
        std::fprintf(stderr,
                     "sos_soak: bad --stop expression: %s (want metric>=N or metric<=N, "
                     "metric a snapshot JSONL key)\n",
                     error.c_str());
        return 1;
      }
      opts.stop.predicates.push_back(*p);
    } else if (std::strcmp(arg, "--min-gap-s") == 0) {
      opts.min_gap_s = nonnegative_number(arg, need_value(i++));
    } else if (std::strcmp(arg, "--no-anomaly") == 0) {
      opts.anomaly_detection = false;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "sos_soak: unknown option %s\n", arg);
      usage();
      return 1;
    }
  }

  // SosNode would quietly route an unknown scheme as "interest"; reject the
  // name before anything is built.
  if (!mw::make_scheme(scheme)) {
    std::string valid;
    for (const std::string& name : mw::scheme_names()) valid += (valid.empty() ? "" : ", ") + name;
    std::fprintf(stderr, "sos_soak: unknown scheme '%s' (valid: %s)\n", scheme.c_str(),
                 valid.c_str());
    return 1;
  }

  if (do_resume && opts.checkpoint_dir.empty()) {
    std::fprintf(stderr, "sos_soak: --resume needs --checkpoint-dir\n");
    return 1;
  }

  // The sweep grid's community-structured cell (48n-4c by default), scaled
  // to the horizon: four sparse villages with 10%% bridge commuters, daily
  // posting volume held constant as days grow.
  deploy::ScenarioConfig config = deploy::gainesville_config(scheme, seed);
  config.nodes = nodes;
  config.area_w_m = 6000.0;
  config.area_h_m = 6000.0;
  config.days = days;
  config.communities = communities;
  if (communities > 1) {
    config.bridge_node_frac = 0.10;
    config.mobility.home_min_separation_m = 150.0;
  }
  config.total_posts_target = 26.0 * static_cast<double>(nodes) * (days / 3.0);
  opts.config = config;

  if (engine == "mono") {
    opts.replay.subepisode_jobs = 0;
  } else if (engine == "strand") {
    // 0 workers would quietly fall back to the mono engine.
    if (jobs == 0) {
      std::fprintf(stderr, "sos_soak: bad --jobs value '0' (the strand engine needs >= 1)\n");
      return 1;
    }
    opts.replay.subepisode_jobs = jobs;
  } else {
    std::fprintf(stderr, "sos_soak: unknown engine '%s'\n", engine.c_str());
    return 1;
  }

  std::printf("sos_soak: recording world (%zu nodes, %zu communities, %.1f days, seed %llu)...\n",
              config.nodes, config.communities, config.days,
              static_cast<unsigned long long>(config.seed));
  std::fflush(stdout);
  auto world = deploy::record_world(config);
  std::printf("sos_soak: %zu contacts recorded; engine=%s jobs=%zu\n", world->trace.size(),
              engine.c_str(), jobs);
  std::fflush(stdout);

  soak::Runner runner(opts);
  soak::SoakResult result;
  if (do_resume) {
    std::string error;
    auto ckpt = soak::CheckpointStore(opts.checkpoint_dir).load_latest(&error);
    if (!ckpt) {
      std::fprintf(stderr, "sos_soak: %s\n", error.c_str());
      return 1;
    }
    std::printf("sos_soak: resuming from segment %llu at sim day %.2f\n",
                static_cast<unsigned long long>(ckpt->segment), ckpt->sim_time / 86400.0);
    std::fflush(stdout);
    result = runner.resume(*world, *ckpt);
  } else {
    result = runner.run(*world);
  }

  std::printf("sos_soak: stop=%s sim_days=%.2f segments=%llu checkpoints=%llu\n",
              result.stop_reason.c_str(), result.sim_time / 86400.0,
              static_cast<unsigned long long>(result.segments),
              static_cast<unsigned long long>(result.checkpoints_written));
  std::printf("sos_soak: posts=%zu deliveries=%zu sessions=%llu resumed=%llu "
              "handshakes=%llu frames=%llu\n",
              result.scenario.oracle.posts().size(),
              result.scenario.oracle.deliveries().size(),
              static_cast<unsigned long long>(result.scenario.totals.sessions_established),
              static_cast<unsigned long long>(result.scenario.totals.sessions_resumed),
              static_cast<unsigned long long>(result.scenario.totals.full_handshakes),
              static_cast<unsigned long long>(result.scenario.totals.frames_sent));
  for (const soak::Anomaly& a : result.anomalies) {
    std::fprintf(stderr, "sos_soak: ANOMALY [%s/%s] %s\n", a.kind.c_str(), a.metric.c_str(),
                 a.detail.c_str());
  }
  if (!result.anomalies.empty()) return 2;
  if (result.stop_reason.rfind("resume-rejected", 0) == 0) {
    std::fprintf(stderr, "sos_soak: %s\n", result.stop_reason.c_str());
    return 1;
  }
  return 0;
}
