// sosbench: the SOS stack's benchmark driver.
//
//   sosbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics: it replays a cycle of inputs
// (the canary plus the seed's social graphs) in whole cycles for most of S
// seconds, then repeats set-up alone for the rest, and reports medians.
// --trace 1 replays the canary once and the seed's first graph untraced a few
// times, then once more with timed routing and spans, probes per-operation
// costs on that run's data, and reports the per-layer metrics; the spans go
// to DIR/<workload>-seed<N>.json. Every run's simulated output is checked.
// The last stdout line is the result object; the line before it holds the
// quartiles, sample counts, host diagnostics and per-replay detail.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "host.hpp"
#include "probes.hpp"
#include "replay_run.hpp"
#include "sim/subepisode.hpp"
#include "workloads.hpp"

namespace sosbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;
  int trace = 0;
  std::string trace_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (find_workload(a.workload) == nullptr)
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

// --- statistics ------------------------------------------------------------

struct Summary {
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
  std::size_t n = 0;
};

// Quartiles by Python's statistics.quantiles(data, n=4) ('exclusive').
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  const std::size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  auto quartile = [&](std::size_t i) {
    std::size_t m = n + 1;
    std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

// --- JSON ------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quote(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + quote(ms[i].unit) + "}";
  }
  return out + "}";
}

using Fields = std::vector<std::pair<std::string, std::string>>;

/// JSON object from (key, already-encoded JSON value) pairs.
std::string object_json(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i)
    out += (i ? ", " : "") + quote(fields[i].first) + ": " + fields[i].second;
  return out + "}";
}

std::string summary_json(const Summary& s) {
  return object_json({{"median", num(s.median)},
                      {"q1", num(s.q1)},
                      {"q3", num(s.q3)},
                      {"min", num(s.min)},
                      {"max", num(s.max)},
                      {"n", std::to_string(s.n)}});
}

std::string list_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
  return out + "]";
}

// --- checks ----------------------------------------------------------------

const char* golden_fingerprint(const std::string& workload) {
  for (const Golden& g : kGolden)
    if (workload == g.workload) return g.fingerprint;
  return nullptr;
}

/// One replay input: a social graph over the workload's fixed world.
struct Input {
  std::string key;  // "canary", or the seeded graph's index
  sos::graph::Digraph graph;
};

/// A cycle's inputs: the canary (graph 0 of the default seed, pinned by a
/// golden fingerprint so every run checks simulated behaviour whatever its
/// seed) followed by the run's own seeded graphs.
std::vector<Input> cycle_inputs(const Workload& w, std::uint64_t seed) {
  std::vector<Input> in;
  in.push_back({"canary", social_graph(w, kDefaultSeed, 0)});
  for (std::size_t g = 0; g < w.graphs_per_cycle; ++g)
    in.push_back({std::to_string(g), social_graph(w, seed, g)});
  return in;
}

/// Output checks that need the run's context: the canary's golden
/// fingerprint, and determinism against earlier replays of the same input.
class RunChecker {
 public:
  explicit RunChecker(const Workload& w) : w_(w) {}

  /// Returns false (and records why) when replay `m` of input `key` fails.
  bool check(const std::string& key, ReplayMeasure& m) {
    if (key == "canary") {
      const char* golden = golden_fingerprint(w_.name);
      if (golden == nullptr)
        m.errors.push_back("no golden fingerprint for " + w_.name);
      else if (m.fingerprint != golden)
        m.errors.push_back("canary fingerprint differs from golden");
    }
    auto [it, fresh] = first_.emplace(key, m.fingerprint);
    if (!fresh && it->second != m.fingerprint)
      m.errors.push_back("replay of input " + key + " is not deterministic");
    ++attempted_;
    if (!m.errors.empty()) {
      ++failed_;
      for (const std::string& e : m.errors) errors_.push_back(e);
      return false;
    }
    return true;
  }
  void fail(const std::string& why) { errors_.push_back(why); }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  const std::map<std::string, std::string>& fingerprints() const { return first_; }

 private:
  const Workload& w_;
  std::map<std::string, std::string> first_;
  std::vector<std::string> errors_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// --- host diagnostics ------------------------------------------------------

struct HostDiag {
  std::int64_t steal_start = -1;
  std::vector<double> ref_loops;
  std::uint64_t ref_sink = 0;

  void sample_ref(int n) {
    for (int i = 0; i < n; ++i) ref_loops.push_back(reference_loop_s(&ref_sink));
  }
  std::int64_t steal_delta() const {
    std::int64_t now = steal_ticks();
    return steal_start < 0 || now < 0 ? -1 : now - steal_start;
  }
  std::string json() const {
    return object_json({{"steal_ticks", std::to_string(steal_delta())},
                        {"ref_loop_s", list_json(ref_loops)},
                        {"ref_sink", std::to_string(ref_sink)}});
  }
};

std::string errors_json(const std::vector<std::string>& errors) {
  std::string out = "[";
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i)
    out += (i ? ", " : "") + quote(errors[i]);
  return out + "]";
}

std::string fingerprints_json(const std::map<std::string, std::string>& fps) {
  Fields fields;
  for (const auto& [key, fp] : fps) fields.emplace_back(key, quote(fp));
  return object_json(fields);
}

void print_result(const RunChecker& checker, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              checker.correct() ? "true" : "false", checker.attempted(), checker.failed(),
              metrics_json(metrics).c_str());
}

// --- trace 0: end-to-end metrics -------------------------------------------

int run_end_to_end(const Args& a, const Workload& w) {
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  HostDiag host;
  host.steal_start = steal_ticks();
  host.sample_ref(3);

  RunChecker checker(w);
  const std::vector<Input> inputs = cycle_inputs(w, a.seed);

  std::vector<double> wall, setup, cpu, rate, ratio;
  std::size_t cycles = 0;
  double last_cycle_s = 0;
  // Whole cycles only, so every input weighs the same in the medians.
  do {
    const double cycle_start = elapsed();
    for (const Input& in : inputs) {
      std::unique_ptr<Replay> r = run_replay(w, in.graph, /*timed_routing=*/false);
      ReplayMeasure& m = r->m;
      checker.check(in.key, m);
      wall.push_back(m.wall_s);
      setup.push_back(m.setup_s);
      cpu.push_back(m.cpu_s);
      rate.push_back(static_cast<double>(m.result.totals.bundles_received) / m.replay_s);
      ratio.push_back(m.result.oracle.posted_delivery_ratio());
    }
    ++cycles;
    last_cycle_s = elapsed() - cycle_start;
  } while (elapsed() + last_cycle_s <= 0.8 * a.seconds);

  // Set-up alone is 0.03-0.8 s, too short to be steady measured once per
  // replay; repeat the pure, deterministic set-up calls for the rest of the
  // budget and take the median over every set-up sample.
  std::size_t setup_repeats = 0;
  double setup_est = *std::max_element(setup.begin(), setup.end());
  while (setup_repeats < 5 || elapsed() + setup_est <= 0.95 * a.seconds) {
    double s = measure_setup(w, inputs[setup_repeats % inputs.size()].graph);
    setup.push_back(s);
    ++setup_repeats;
  }
  host.sample_ref(3);

  Summary s_wall = summarize(wall), s_setup = summarize(setup), s_cpu = summarize(cpu),
          s_rate = summarize(rate), s_ratio = summarize(ratio);
  const double rss = peak_rss_mb();
  const Fields detail = {
      {"workload", quote(w.name)},
      {"seed", std::to_string(a.seed)},
      {"cycles", std::to_string(cycles)},
      {"inputs_per_cycle", std::to_string(inputs.size())},
      {"setup_repeats", std::to_string(setup_repeats)},
      {"elapsed_s", num(elapsed())},
      {"replay_walls_s", list_json(wall)},
      {"wall_s", summary_json(s_wall)},
      {"setup_s", summary_json(s_setup)},
      {"cpu_s", summary_json(s_cpu)},
      {"bundles_per_s", summary_json(s_rate)},
      {"delivery_ratio", summary_json(s_ratio)},
      {"host", host.json()},
      {"fingerprints", fingerprints_json(checker.fingerprints())},
      {"errors", errors_json(checker.errors())},
  };
  std::printf("%s\n", object_json({{"detail", object_json(detail)}}).c_str());
  print_result(checker, {{"wall_s", s_wall.median, "s"},
                         {"setup_s", s_setup.median, "s"},
                         {"cpu_s", s_cpu.median, "s"},
                         {"peak_rss_mb", rss, "MB"},
                         {"bundles_per_s", s_rate.median, "1/s"},
                         {"delivery_ratio", s_ratio.median, "fraction"}});
  return 0;
}

// --- trace 1: per-layer metrics --------------------------------------------

void write_trace(const std::string& path, const Args& a, const Replay& r,
                 const std::array<TimedScheme::Stat, TimedScheme::kMethodCount>& routing,
                 const std::vector<Metric>& metrics) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"workload\": " << quote(a.workload) << ", \"seed\": " << a.seed
      << ",\n \"spans\": [";
  const std::vector<Span>& spans = r.tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": " << quote(spans[i].name)
        << ", \"start_s\": " << num(spans[i].start_s) << ", \"end_s\": " << num(spans[i].end_s)
        << ", \"parent\": " << spans[i].parent << "}";
  }
  out << "],\n \"routing\": [";
  for (int m = 0; m < TimedScheme::kMethodCount; ++m) {
    const TimedScheme::Stat& st = routing[static_cast<std::size_t>(m)];
    out << (m ? ",\n  " : "\n  ") << "{\"method\": " << quote(TimedScheme::method_name(m))
        << ", \"calls\": " << st.calls
        << ", \"total_s\": " << num(static_cast<double>(st.ns) * 1e-9) << "}";
  }
  out << "],\n \"metrics\": " << metrics_json(metrics) << "}\n";
}

int run_traced(const Args& a, const Workload& w) {
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  HostDiag host;
  host.steal_start = steal_ticks();
  host.sample_ref(3);

  RunChecker checker(w);
  const std::vector<Input> inputs = cycle_inputs(w, a.seed);
  const Input& canary = inputs[0];
  const Input& traced = inputs[1];  // the run's first seeded graph

  {
    std::unique_ptr<Replay> r = run_replay(w, canary.graph, /*timed_routing=*/false);
    checker.check(canary.key, r->m);
  }
  // Untraced baseline of the traced input: the overhead reference and the
  // fingerprint the traced run must reproduce.
  std::vector<double> untraced_wall;
  do {
    std::unique_ptr<Replay> r = run_replay(w, traced.graph, /*timed_routing=*/false);
    checker.check(traced.key, r->m);
    untraced_wall.push_back(r->m.wall_s);
  } while (untraced_wall.size() < 2 ||
           elapsed() + untraced_wall.back() <= 0.5 * a.seconds);

  std::unique_ptr<Replay> tr = run_replay(w, traced.graph, /*timed_routing=*/true);
  checker.check(traced.key, tr->m);  // equal to the untraced fingerprint, or it fails
  const ReplayMeasure& m = tr->m;
  const sos::mw::NodeStats& st = m.result.totals;
  const sos::deploy::ScenarioResult& res = m.result;

  const int analysis = tr->tracer.begin("analysis");
  double dag_parallelism = 0;
  {
    SpanScope s(tr->tracer, "sim.ContactDag::partition", analysis);
    dag_parallelism = sos::sim::ContactDag::partition(tr->world->trace, tr->config.nodes,
                                                      tr->session->horizon())
                          .parallelism();
  }
  OpCosts costs;
  {
    SpanScope s(tr->tracer, "probes", analysis);
    costs = probe_costs(*tr, s.id());
  }
  tr->tracer.end(analysis);
  host.sample_ref(3);

  // Phase spans must add up to the run's wall time.
  const double phase_sum = tr->tracer.children_total(tr->root);
  if (std::fabs(phase_sum - m.wall_s) > 0.01 * m.wall_s + 0.002)
    checker.fail("phase spans sum to " + num(phase_sum) + " s, run wall is " + num(m.wall_s));

  const auto routing = routing_totals(tr->schemes);
  std::uint64_t routing_calls = 0, routing_ns = 0;
  for (const TimedScheme::Stat& r : routing) {
    routing_calls += r.calls;
    routing_ns += r.ns;
  }

  // Attribution of deploy.replay_s. Counts times probed per-op costs give
  // CPU seconds; on a parallel replay they are spread over its workers, so
  // each term is divided by the replay's measured parallelism (>= 1).
  const double replay_parallelism = m.replay_cpu_s / m.replay_s;
  const double spread = std::max(1.0, replay_parallelism);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  // Memo lookups: cert + bundle signature per verify-cache miss, the peer
  // certificate of each full handshake, the cached certificate of each
  // resume. Verify-path hashes add the per-reception verify-cache digest.
  const double memo_lookups =
      2 * d(st.bundle_sig_cache_misses) + d(st.full_handshakes) + d(st.sessions_resumed);
  const double verify_path_hashes =
      memo_lookups + d(st.bundle_sig_cache_hits) + d(st.bundle_sig_cache_misses);
  const double routing_s = static_cast<double>(routing_ns) * 1e-9;
  const double aead_est = 2 * d(res.wire_bytes) * costs.aead_s_per_byte / spread;
  // Curve verifications: one per distinct memo verdict plus the handshake
  // binding signature, which is checked outside the memo.
  const double verify_est =
      (d(m.memo_verdicts) + d(st.full_handshakes)) * costs.ed25519_verify_s / spread;
  // Signatures: every published bundle, and the binding signature over each
  // full handshake's ephemeral key.
  const double sign_est = (d(st.published) + d(st.full_handshakes)) * costs.ed25519_sign_s / spread;
  const double ecdh_est = d(st.ecdh_ops) * costs.x25519_s / spread;
  const double memo_key_est = verify_path_hashes * costs.memo_key_of_s / spread;
  const double codec_est = (d(st.bundles_sent) * costs.bundle_encode_s +
                            d(st.bundles_received) * costs.bundle_decode_s) /
                           spread;
  const double other_est = m.replay_s - (routing_s / spread + aead_est + verify_est + sign_est +
                                         ecdh_est + memo_key_est + codec_est);
  // The terms must not overshoot the replay they explain.
  if (other_est < -0.05 * m.replay_s)
    checker.fail("replay attribution exceeds deploy.replay_s by " + num(-other_est) + " s");

  auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
  const double untraced_median = summarize(untraced_wall).median;
  std::vector<Metric> metrics = {
      {"deploy.record_world_s", tr->tracer.child_total(tr->root, "deploy.record_world"), "s"},
      {"deploy.session_build_s", tr->tracer.child_total(tr->root, "deploy.session_build"), "s"},
      {"deploy.replay_s", m.replay_s, "s"},
      {"deploy.finish_s", tr->tracer.child_total(tr->root, "deploy.finish"), "s"},
      {"deploy.segments", d(m.segments), "count"},
      {"deploy.replay_parallelism", replay_parallelism, "ratio"},
      {"sim.dag_parallelism", dag_parallelism, "ratio"},
      {"soak.checkpoint_share", share(m.checkpoint_s, m.wall_s), "fraction"},
      {"soak.checkpoint_bytes", d(m.checkpoint_bytes), "bytes"},
      {"soak.checkpoints", d(m.checkpoints), "count"},
      {"mw.routing_s", routing_s, "s"},
      {"mw.routing_calls", d(routing_calls), "count"},
      {"crypto.aead_est_s", aead_est, "s"},
      {"crypto.verify_est_s", verify_est, "s"},
      {"crypto.sign_est_s", sign_est, "s"},
      {"crypto.ecdh_est_s", ecdh_est, "s"},
      {"crypto.memo_key_est_s", memo_key_est, "s"},
      {"bundle.codec_est_s", codec_est, "s"},
      {"replay.other_est_s", other_est, "s"},
      {"pki.signup_est_s", d(tr->config.nodes) * costs.pki_signup_s, "s"},
      {"mw.full_handshakes", d(st.full_handshakes), "count"},
      {"mw.sessions_resumed", d(st.sessions_resumed), "count"},
      {"mw.resume_share", share(d(st.sessions_resumed), d(st.sessions_established)), "fraction"},
      {"mw.ecdh_ops", d(st.ecdh_ops), "count"},
      {"mw.bundles_received", d(st.bundles_received), "count"},
      {"mw.duplicate_share", share(d(st.duplicates_ignored), d(st.bundles_received)), "fraction"},
      {"mw.sig_verifies", d(st.bundle_sig_cache_misses), "count"},
      {"mw.sig_cache_hit_share",
       share(d(st.bundle_sig_cache_hits), d(st.bundle_sig_cache_hits + st.bundle_sig_cache_misses)),
       "fraction"},
      {"mw.sig_rejected", d(st.bundle_sig_rejected + st.bundle_cert_rejected), "count"},
      {"mw.transfers_interrupted", d(st.transfers_interrupted), "count"},
      {"sim.contacts", d(res.contacts), "count"},
      {"sim.wire_frames", d(res.wire_frames), "count"},
      {"sim.wire_bytes", d(res.wire_bytes), "bytes"},
      {"sim.connections", d(res.connections), "count"},
      {"sim.connections_failed", d(res.connections_failed), "count"},
      {"sim.frames_lost", d(res.frames_lost), "count"},
      {"crypto.memo_verdicts", d(m.memo_verdicts), "count"},
      {"crypto.memo_hit_share", memo_lookups > 0 ? 1.0 - d(m.memo_verdicts) / memo_lookups : 0.0,
       "fraction"},
      {"bundle.resident", d(m.bundles_resident), "count"},
      {"crypto.ed25519_verify_us", costs.ed25519_verify_s * 1e6, "us"},
      {"crypto.ed25519_sign_us", costs.ed25519_sign_s * 1e6, "us"},
      {"crypto.x25519_us", costs.x25519_s * 1e6, "us"},
      {"crypto.aead_us_per_kib", costs.aead_s_per_byte * 1024 * 1e6, "us/KiB"},
      {"crypto.memo_key_of_us", costs.memo_key_of_s * 1e6, "us"},
      {"bundle.encode_us", costs.bundle_encode_s * 1e6, "us"},
      {"bundle.decode_us", costs.bundle_decode_s * 1e6, "us"},
      {"pki.signup_us", costs.pki_signup_s * 1e6, "us"},
      {"trace.wall_s", m.wall_s, "s"},
      {"trace.overhead_s", m.wall_s - untraced_median, "s"},
      {"host.steal_ticks", static_cast<double>(host.steal_delta()), "count"},
      {"host.ref_loop_s", summarize(host.ref_loops).median, "s"},
  };

  std::string trace_path;
  if (!a.trace_dir.empty()) {
    trace_path = a.trace_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".json";
    write_trace(trace_path, a, *tr, routing, metrics);
  }
  const Fields detail = {
      {"workload", quote(w.name)},
      {"seed", std::to_string(a.seed)},
      {"untraced_wall_s", summary_json(summarize(untraced_wall))},
      {"traced_wall_s", num(m.wall_s)},
      {"phase_sum_s", num(phase_sum)},
      {"probe_sample_bundles", std::to_string(costs.sample_bundles)},
      {"probe_checksum", std::to_string(costs.checksum)},
      {"trace_file", quote(trace_path)},
      {"host", host.json()},
      {"fingerprints", fingerprints_json(checker.fingerprints())},
      {"errors", errors_json(checker.errors())},
  };
  std::printf("%s\n", object_json({{"detail", object_json(detail)}}).c_str());
  print_result(checker, metrics);
  return 0;
}

}  // namespace
}  // namespace sosbench

int main(int argc, char** argv) {
  try {
    sosbench::Args a = sosbench::parse_args(argc, argv);
    const sosbench::Workload& w = *sosbench::find_workload(a.workload);
    return a.trace ? sosbench::run_traced(a, w) : sosbench::run_end_to_end(a, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sosbench: %s\n", e.what());
    return 1;
  }
}
