#include "deploy/scenario.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "alleyoop/app.hpp"
#include "crypto/drbg.hpp"
#include "crypto/verify_memo.hpp"
#include "deploy/replay.hpp"
#include "deploy/scenario_detail.hpp"
#include "graph/generators.hpp"
#include "pki/bootstrap.hpp"
#include "sim/multipeer.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace sos::deploy {

ScenarioConfig gainesville_config(const std::string& scheme, std::uint64_t seed) {
  ScenarioConfig config;
  config.scheme = scheme;
  config.seed = seed;
  return config;
}

namespace detail {

std::vector<util::SimTime> posting_times(const ScenarioConfig& config, util::Rng& rng) {
  double horizon = util::days(config.days);
  double window = util::hours(config.post_window_end_h - config.post_window_start_h);
  double active_total = window * config.days;
  double per_node = config.total_posts_target / static_cast<double>(config.nodes);
  double rate = per_node / active_total;  // posts per active second

  std::vector<util::SimTime> times;
  util::SimTime t = util::hours(config.post_window_start_h);
  while (t < horizon) {
    t += rng.exponential(1.0 / rate);
    double tod = util::time_of_day(t);
    if (tod < util::hours(config.post_window_start_h)) {
      t += util::hours(config.post_window_start_h) - tod;
      continue;
    }
    if (tod > util::hours(config.post_window_end_h)) {
      // Jump to the next morning's window.
      t += util::days(1) - tod + util::hours(config.post_window_start_h);
      continue;
    }
    if (t < horizon) times.push_back(t);
  }
  return times;
}

std::unique_ptr<sim::TrajectoryMobility> build_mobility(const ScenarioConfig& config,
                                                        util::Rng& rng) {
  sim::DailyRoutineParams mobility_params = config.mobility;
  mobility_params.area = {config.area_w_m, config.area_h_m};
  mobility_params.community_count = config.communities;
  mobility_params.bridge_node_frac = config.bridge_node_frac;
  util::Rng mobility_rng = rng.fork();
  return sim::daily_routine(config.nodes, util::days(config.days), mobility_params,
                            mobility_rng);
}

graph::Digraph build_social_graph(const ScenarioConfig& config, util::Rng& rng) {
  if (config.social) return *config.social;
  if (config.nodes == 10) return graph::baker2017_social_graph();
  util::Rng graph_rng = rng.fork();
  // Density in the ballpark of the deployment's 0.64 undirected density.
  return graph::social_community(config.nodes, 0.38, 0.35, graph_rng);
}

void build_fleet(Fleet& fleet, const ScenarioConfig& config, sim::Scheduler& sched,
                 sim::MpcNetwork& net, crypto::VerifyMemo* verify_memo,
                 const sim::FaultPlan* plan) {
  pki::BootstrapService infra(
      util::concat(util::to_bytes("scenario-infra-"),
                   util::Bytes{static_cast<std::uint8_t>(config.seed)}));
  for (std::size_t i = 0; i < config.nodes; ++i) {
    crypto::Drbg device(util::concat(util::to_bytes("device-" + std::to_string(i) + "-seed-"),
                                     util::Bytes{static_cast<std::uint8_t>(config.seed)}));
    auto creds = infra.signup("user" + std::to_string(i), device, sched.now());
    mw::SosConfig mw_config;
    mw_config.scheme = config.scheme;
    mw_config.store_capacity = config.store_capacity;
    mw_config.resume_lifetime_s = config.resume_lifetime_s;
    mw_config.verify_signatures = config.verify_signatures;
    if (plan != nullptr) {
      // Adversaries keep their PKI identity and workload; only behavior
      // changes. A blackhole swaps its routing scheme for the sink; a
      // forger corrupts every signature it makes.
      sim::AdversaryRole role = plan->role(static_cast<std::uint32_t>(i));
      if (role == sim::AdversaryRole::Blackhole) mw_config.scheme = "blackhole";
      if (role == sim::AdversaryRole::Forger) mw_config.forge_signatures = true;
    }
    fleet.nodes.push_back(std::make_unique<mw::SosNode>(
        sched, net.endpoint(static_cast<sim::PeerId>(i)), std::move(*creds), mw_config));
    if (verify_memo != nullptr) fleet.nodes.back()->set_verify_memo(verify_memo);
    fleet.apps.push_back(std::make_unique<alleyoop::App>(*fleet.nodes.back(), &fleet.cloud));
  }
}

std::map<pki::UserId, std::set<pki::UserId>> wire_follows(Fleet& fleet,
                                                          const graph::Digraph& social) {
  std::map<pki::UserId, std::set<pki::UserId>> follows;
  for (auto [i, j] : social.edges()) {
    fleet.apps[i]->follow(fleet.nodes[j]->user_id());
    follows[fleet.nodes[i]->user_id()].insert(fleet.nodes[j]->user_id());
  }
  return follows;
}

std::vector<std::vector<TimelineEvent>> build_timelines(const ScenarioConfig& config,
                                                        util::Rng& workload_rng,
                                                        const sim::FaultPlan* plan) {
  const double horizon = util::days(config.days);
  std::vector<std::vector<TimelineEvent>> timelines(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    std::vector<TimelineEvent>& tl = timelines[i];
    const std::uint32_t node = static_cast<std::uint32_t>(i);
    std::vector<util::SimTime> posts = posting_times(config, workload_rng);
    for (std::size_t k = 0; k < posts.size(); ++k) {
      if (plan != nullptr && plan->node_down(node, posts[k])) continue;
      tl.push_back({posts[k], TimelineEvent::Kind::Post, static_cast<int>(k) + 1, nullptr});
    }
    if (plan != nullptr) {
      std::vector<util::SimTime> floods = plan->flood_times(node, horizon);
      for (std::size_t k = 0; k < floods.size(); ++k) {
        tl.push_back({floods[k], TimelineEvent::Kind::Flood, static_cast<int>(k) + 1, nullptr});
      }
      for (const sim::NodeChurnEvent& c : plan->churn_for(node)) {
        if (c.up_at < horizon) tl.push_back({c.up_at, TimelineEvent::Kind::Reboot, 0, &c});
      }
      // Stable sort: same-instant ties keep insertion order (Post < Flood <
      // Reboot), the tie-break both engines rely on.
      std::stable_sort(tl.begin(), tl.end(), [](const TimelineEvent& a, const TimelineEvent& b) {
        return a.t < b.t;
      });
    }
  }
  return timelines;
}

}  // namespace detail

graph::Digraph scenario_social_graph(const ScenarioConfig& config) {
  util::Rng rng(config.seed);
  util::Rng mobility_rng = rng.fork();  // consumed first by run_scenario
  (void)mobility_rng;
  return detail::build_social_graph(config, rng);
}

std::shared_ptr<const ScenarioWorld> record_world(const ScenarioConfig& config) {
  sim::Scheduler sched;
  util::Rng rng(config.seed);
  double horizon = util::days(config.days);
  auto mobility = detail::build_mobility(config, rng);

  sim::EncounterDetector detector(sched, *mobility, config.radio.range_m,
                                  config.encounter_tick_s);
  sim::TraceRecorder recorder(sched);
  detector.on_contact_start = [&](std::size_t a, std::size_t b) {
    recorder.contact_start(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  };
  detector.on_contact_end = [&](std::size_t a, std::size_t b) {
    recorder.contact_end(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b));
  };
  detector.start(horizon);
  sched.run_until(horizon);
  return std::make_shared<ScenarioWorld>(
      ScenarioWorld{sim::TrajectoryMobility(std::move(*mobility)), recorder.finish()});
}

ScenarioResult run_scenario(const ScenarioConfig& config, const ScenarioWorld* world,
                            const ReplayOptions& replay) {
  if (world == nullptr) {
    std::shared_ptr<const ScenarioWorld> recorded = record_world(config);
    return run_scenario(config, recorded.get(), replay);
  }
  if (replay.subepisode_jobs > 0) {
    ReplaySession session(config, *world, replay);
    session.advance_to(session.horizon());
    return session.finish();
  }

  // The single-scheduler reference: the whole trace on one scheduler. The
  // strand engine and the mono session are pinned bitwise against it.
  sim::Scheduler sched;
  util::Rng rng(config.seed);
  double horizon = util::days(config.days);

  // Compiled fault plan; absent (the common case) every fault hook below
  // is skipped and the engine is bit-identical to the pre-fault one.
  std::optional<sim::FaultPlan> fault_plan;
  if (config.faults.any()) fault_plan.emplace(config.faults, config.seed, config.nodes);
  const sim::FaultPlan* plan = fault_plan ? &*fault_plan : nullptr;

  // --- mobility + radio ----------------------------------------------------
  // Positions come from the recorded trajectories; consume the mobility
  // fork anyway to keep the downstream RNG streams aligned with recording.
  {
    util::Rng discard = rng.fork();
    (void)discard;
  }
  const sim::MobilityModel* mobility = &world->mobility;

  sim::MpcNetwork net(sched, config.nodes, config.radio);
  if (plan != nullptr) net.set_fault_plan(plan);
  sim::ContactTrace trace = world->trace;
  if (plan != nullptr && plan->reshapes_trace()) trace = plan->apply(world->trace);
  const std::uint64_t contact_count = trace.size();
  sim::TracePlayer player(sched, std::move(trace));
  player.on_contact_start = [&net](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(static_cast<sim::PeerId>(a), static_cast<sim::PeerId>(b), true);
  };
  player.on_contact_end = [&net](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(static_cast<sim::PeerId>(a), static_cast<sim::PeerId>(b), false);
  };
  player.start();

  // --- users: Fig 2a bootstrap, SOS node, AlleyOop app ---------------------
  ScenarioResult result;
  MetricsOracle& oracle = result.oracle;

  // One memo of signature verdicts shared across all nodes: the verdict is
  // a pure function of (key, message, signature), so each distinct triple
  // pays the curve math once per run instead of once per carrying node.
  // Counters and metrics are unchanged. A caller-owned memo (replay.memo)
  // widens the scope to every variant of a sweep cell.
  std::optional<crypto::VerifyMemo> local_memo;
  crypto::VerifyMemo* verify_memo = nullptr;
  if (replay.share_verify_memo) {
    verify_memo = replay.memo != nullptr ? replay.memo : &local_memo.emplace();
  }

  detail::Fleet fleet;
  detail::build_fleet(fleet, config, sched, net, verify_memo, plan);
  auto& nodes = fleet.nodes;
  auto& apps = fleet.apps;

  // --- social graph (subscriptions) -----------------------------------------
  graph::Digraph social = detail::build_social_graph(config, rng);
  result.social = social;
  oracle.set_subscriptions(detail::wire_follows(fleet, social));

  // --- instrumentation --------------------------------------------------------
  for (std::size_t i = 0; i < config.nodes; ++i) {
    mw::SosNode& node = *nodes[i];
    std::size_t idx = i;
    node.on_carry = [&, idx](const bundle::Bundle& b) {
      oracle.record_carry(
          {b.id(), nodes[idx]->user_id(), sched.now(), mobility->position(idx, sched.now())});
    };
    node.on_data = [&, idx](const bundle::Bundle& b, const pki::Certificate&) {
      oracle.record_delivery({b.id(), nodes[idx]->user_id(), sched.now(), b.hop_count,
                              mobility->position(idx, sched.now())});
    };
    node.start();
  }

  // --- workload: posts + adversarial junk + reboots -------------------------
  // One merged chronological timeline per node, scheduled strictly in list
  // order (the same order the strand tasks use), so same-timestamp ties
  // and shard-boundary clamps resolve identically on every path.
  util::Rng workload_rng = rng.fork();
  auto timelines = detail::build_timelines(config, workload_rng, plan);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    std::size_t idx = i;
    for (const detail::TimelineEvent& ev : timelines[i]) {
      switch (ev.kind) {
        case detail::TimelineEvent::Kind::Post:
          sched.schedule_at(ev.t, [&, idx, k = ev.k] {
            auto post = apps[idx]->post("post #" + std::to_string(k) + " by user" +
                                        std::to_string(idx));
            oracle.record_post({{nodes[idx]->user_id(), post.msg_num},
                                nodes[idx]->user_id(),
                                sched.now(),
                                mobility->position(idx, sched.now())});
          });
          break;
        case detail::TimelineEvent::Kind::Flood:
          // Junk publish straight through the middleware (no app, and never
          // recorded as a post: the oracle's delivered-of-posted metrics
          // must count only the honest workload).
          sched.schedule_at(ev.t, [&, idx, k = ev.k] {
            nodes[idx]->publish(util::to_bytes("junk #" + std::to_string(k) + " from user" +
                                               std::to_string(idx)));
          });
          break;
        case detail::TimelineEvent::Kind::Reboot:
          sched.schedule_at(ev.t, [&, idx, churn = ev.churn] {
            nodes[idx]->reboot(churn->lose_store, churn->lose_resume_cache);
          });
          break;
      }
    }
  }

  // --- run ------------------------------------------------------------------------
  sched.run_until(horizon);

  // --- collect ----------------------------------------------------------------------
  for (const auto& node : nodes) result.totals += node->stats();
  result.contacts = contact_count;
  detail::fill_net_counters(result, net);
  result.simulated_days = config.days;
  return result;
}

}  // namespace sos::deploy
