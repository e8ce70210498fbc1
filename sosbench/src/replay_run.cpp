#include "replay_run.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <sstream>

#include "mw/sos_node.hpp"
#include "soak/checkpoint.hpp"
#include "util/codec.hpp"
#include "util/time.hpp"

namespace sosbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

std::string fingerprint(const sos::deploy::ScenarioResult& r) {
  const sos::mw::NodeStats& s = r.totals;
  std::ostringstream os;
  // Field order is part of the golden format; append, never reorder.
  for (std::uint64_t v :
       {s.sessions_established, s.sessions_lost, s.full_handshakes, s.sessions_resumed,
        s.resume_attempts, s.resume_rejected, s.ecdh_ops, s.handshake_cert_rejected,
        s.handshake_sig_rejected, s.frames_sent, s.frames_received, s.decrypt_failures,
        s.malformed_frames, s.bundles_sent, s.bundles_received, s.bundle_sig_rejected,
        s.bundle_cert_rejected, s.bundle_sig_cache_hits, s.bundle_sig_cache_misses,
        s.bundle_batch_verifies, s.bundle_batch_fallbacks, s.duplicates_ignored,
        s.bundles_carried, s.deliveries, s.transfers_interrupted, s.published, s.reboots,
        r.wire_frames, r.wire_bytes, static_cast<std::uint64_t>(r.oracle.post_count()),
        static_cast<std::uint64_t>(r.oracle.delivery_count()),
        static_cast<std::uint64_t>(r.oracle.carry_count())}) {
    os << v << ' ';
  }
  std::string out = os.str();
  out.pop_back();
  return out;
}

namespace {

sos::deploy::ScenarioConfig replay_config(const Workload& w, sos::graph::Digraph social) {
  sos::deploy::ScenarioConfig c = w.config;
  c.social = std::move(social);
  return c;
}

void checkpoint_round_trip(Replay& r, const std::array<std::uint8_t, 32>& digest,
                           std::uint64_t segment) {
  SpanScope span(r.tracer, "soak.checkpoint", r.root);
  sos::soak::Checkpoint c;
  c.segment = segment;
  c.sim_time = r.session->sim_time();
  c.world_digest = digest;
  {
    SpanScope s(r.tracer, "deploy.save_state", span.id());
    sos::util::Writer w;
    r.session->save_state(w);
    c.payload = w.take();
  }
  sos::util::Bytes encoded;
  {
    SpanScope s(r.tracer, "soak.encode_checkpoint", span.id());
    encoded = sos::soak::encode_checkpoint(c);
  }
  std::string error;
  std::optional<sos::soak::Checkpoint> decoded;
  {
    SpanScope s(r.tracer, "soak.decode_checkpoint", span.id());
    decoded = sos::soak::decode_checkpoint(encoded, &error);
  }
  if (!decoded) {
    r.m.errors.push_back("checkpoint at segment " + std::to_string(segment) +
                         " failed to decode: " + error);
  } else if (decoded->payload != c.payload || decoded->segment != c.segment ||
             decoded->sim_time != c.sim_time || decoded->world_digest != c.world_digest) {
    r.m.errors.push_back("checkpoint at segment " + std::to_string(segment) +
                         " did not round-trip");
  }
  ++r.m.checkpoints;
  r.m.checkpoint_bytes = std::max<std::uint64_t>(r.m.checkpoint_bytes, encoded.size());
}

void advance(Replay& r, sos::util::SimTime t) {
  SpanScope s(r.tracer, "deploy.advance_to", r.root);
  double cpu0 = process_cpu_s();
  r.session->advance_to(t);
  r.m.replay_cpu_s += process_cpu_s() - cpu0;
  ++r.m.segments;
}

void check_outputs(const Workload& w, ReplayMeasure& m) {
  const sos::deploy::MetricsOracle& o = m.result.oracle;
  if (o.carry_count() < o.delivery_count())
    m.errors.push_back("carried < delivered");
  double ratio = o.posted_delivery_ratio();
  if (!(ratio > 0.0 && ratio <= 1.0))
    m.errors.push_back("posted delivery ratio out of (0, 1]: " + std::to_string(ratio));
  if (m.result.totals.bundles_received == 0) m.errors.push_back("no bundle received");
  if (w.config.verify_signatures && w.config.faults.adversaries.forger_frac > 0 &&
      o.delivery_count() != o.delivered_of_posted())
    m.errors.push_back("forged bundles delivered on a signed deployment");
}

}  // namespace

std::unique_ptr<Replay> run_replay(const Workload& w, sos::graph::Digraph social,
                                   bool timed_routing) {
  auto r = std::make_unique<Replay>();
  r->config = replay_config(w, std::move(social));
  sos::deploy::ReplayOptions options = w.replay;
  r->memo = std::make_unique<sos::crypto::VerifyMemo>();
  options.memo = r->memo.get();

  const double cpu0 = process_cpu_s();
  r->root = r->tracer.begin("run");
  {
    SpanScope s(r->tracer, "deploy.record_world", r->root);
    r->world = sos::deploy::record_world(r->config);
  }
  {
    SpanScope s(r->tracer, "deploy.session_build", r->root);
    r->session = std::make_unique<sos::deploy::ReplaySession>(r->config, *r->world, options);
  }
  if (timed_routing) {
    SpanScope s(r->tracer, "trace.install_timed_schemes", r->root);
    r->schemes = install_timed_schemes(*r->session, r->config);
  }

  const sos::util::SimTime horizon = r->session->horizon();
  std::array<std::uint8_t, 32> digest{};
  if (w.daily_checkpoints) {
    std::vector<sos::util::SimTime> cuts;
    {
      SpanScope s(r->tracer, "deploy.quiescent_cuts", r->root);
      cuts = r->session->quiescent_cuts(60.0);
    }
    {
      SpanScope s(r->tracer, "soak.world_digest", r->root);
      digest = sos::soak::world_digest(r->config, *r->world);
    }
    std::size_t ci = 0;
    for (int day = 1; sos::util::days(day) < horizon; ++day) {
      while (ci < cuts.size() &&
             (cuts[ci] < sos::util::days(day) || cuts[ci] <= r->session->sim_time()))
        ++ci;
      if (ci == cuts.size()) break;
      advance(*r, cuts[ci]);
      checkpoint_round_trip(*r, digest, r->m.segments);
    }
  }
  advance(*r, horizon);
  {
    SpanScope s(r->tracer, "deploy.finish", r->root);
    r->m.result = r->session->finish();
  }
  r->tracer.end(r->root);
  ReplayMeasure& m = r->m;
  m.cpu_s = process_cpu_s() - cpu0;
  m.wall_s = r->tracer.spans()[static_cast<std::size_t>(r->root)].duration();
  m.setup_s = r->tracer.child_total(r->root, "deploy.record_world") +
              r->tracer.child_total(r->root, "deploy.session_build");
  m.replay_s = r->tracer.child_total(r->root, "deploy.advance_to");
  m.checkpoint_s = r->tracer.child_total(r->root, "soak.checkpoint");
  m.memo_verdicts = r->memo->size();
  for (std::size_t i = 0; i < r->session->node_count(); ++i)
    m.bundles_resident += r->session->node(i).store().size();
  m.fingerprint = fingerprint(m.result);
  check_outputs(w, m);
  return r;
}

double measure_setup(const Workload& w, sos::graph::Digraph social) {
  sos::deploy::ScenarioConfig config = replay_config(w, std::move(social));
  sos::deploy::ReplayOptions options = w.replay;
  sos::crypto::VerifyMemo memo;
  options.memo = &memo;
  Clock::time_point t0 = Clock::now();
  auto world = sos::deploy::record_world(config);
  auto session = std::make_unique<sos::deploy::ReplaySession>(config, *world, options);
  Clock::time_point t1 = Clock::now();
  return seconds_between(t0, t1);
}

}  // namespace sosbench
