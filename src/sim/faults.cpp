#include "sim/faults.hpp"

#include <algorithm>
#include <cstring>

namespace sos::sim {

namespace {

// Fault-stream salts: every fault family draws from its own derive_seed
// chain so adding one family never perturbs another's stream.
constexpr std::uint64_t kStreamRole = 0xfa17'0001;
constexpr std::uint64_t kStreamLoss = 0xfa17'0002;
constexpr std::uint64_t kStreamFlood = 0xfa17'0003;

bool in_window(const FaultWindow& w, util::SimTime t) {
  return t >= w.start && t < w.end;
}

bool in_any_window(const std::vector<FaultWindow>& windows, util::SimTime t) {
  for (const FaultWindow& w : windows)
    if (in_window(w, t)) return true;
  return false;
}

std::uint64_t time_bits(util::SimTime t) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(t));
  std::memcpy(&bits, &t, sizeof(bits));
  return bits;
}

bool prob_ok(double p) { return p >= 0.0 && p <= 1.0; }

void check_windows(const std::vector<FaultWindow>& windows, double horizon_s,
                   const char* what, std::vector<std::string>& problems) {
  for (const FaultWindow& w : windows) {
    if (w.start > w.end) {
      problems.push_back(std::string(what) + " window inverted (start " +
                         std::to_string(w.start) + " > end " + std::to_string(w.end) + ")");
    }
    if (w.start < 0 || w.end > horizon_s) {
      problems.push_back(std::string(what) + " window [" + std::to_string(w.start) + ", " +
                         std::to_string(w.end) + ") outside the horizon [0, " +
                         std::to_string(horizon_s) + ")");
    }
  }
}

}  // namespace

std::vector<std::string> FaultPlanConfig::validate(double horizon_s,
                                                  std::size_t nodes) const {
  std::vector<std::string> problems;

  if (!prob_ok(link.loss_p)) {
    problems.push_back("link.loss_p " + std::to_string(link.loss_p) + " outside [0, 1]");
  }
  if (link.loss_p_reverse > 1.0) {
    problems.push_back("link.loss_p_reverse " + std::to_string(link.loss_p_reverse) +
                       " > 1 (< 0 means symmetric)");
  }
  if (link.jitter_max_s < 0) problems.push_back("link.jitter_max_s negative");
  if (link.jitter_spike_max_s < 0) problems.push_back("link.jitter_spike_max_s negative");
  check_windows(link.jitter_spikes, horizon_s, "jitter-spike", problems);
  check_windows(link.disconnects, horizon_s, "disconnect", problems);

  for (const NodeChurnEvent& c : churn) {
    if (c.node >= nodes) {
      problems.push_back("churn event names node " + std::to_string(c.node) +
                         " but the scenario has " + std::to_string(nodes));
    }
    if (c.down_at > c.up_at) {
      problems.push_back("churn window inverted on node " + std::to_string(c.node) +
                         " (down " + std::to_string(c.down_at) + " > up " +
                         std::to_string(c.up_at) + ")");
    }
    if (c.down_at < 0 || c.down_at > horizon_s) {
      problems.push_back("churn down_at " + std::to_string(c.down_at) +
                         " outside the horizon on node " + std::to_string(c.node));
    }
  }
  // Overlapping churn cycles on one node have no sane meaning (down while
  // already down): reject instead of picking an arbitrary semantics.
  std::vector<NodeChurnEvent> sorted = churn;
  std::sort(sorted.begin(), sorted.end(), [](const NodeChurnEvent& a, const NodeChurnEvent& b) {
    return a.node != b.node ? a.node < b.node : a.down_at < b.down_at;
  });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].node == sorted[i - 1].node && sorted[i].down_at < sorted[i - 1].up_at) {
      problems.push_back("overlapping churn windows on node " +
                         std::to_string(sorted[i].node));
    }
  }

  for (const PartitionWindow& p : partitions) {
    if (p.groups < 2) {
      problems.push_back("partition with " + std::to_string(p.groups) +
                         " group(s) partitions nothing");
    }
    check_windows({p.window}, horizon_s, "partition", problems);
  }

  const AdversaryMix& adv = adversaries;
  for (auto [frac, name] : {std::pair{adv.flooder_frac, "flooder_frac"},
                            std::pair{adv.blackhole_frac, "blackhole_frac"},
                            std::pair{adv.grayhole_frac, "grayhole_frac"},
                            std::pair{adv.forger_frac, "forger_frac"}}) {
    if (!prob_ok(frac)) {
      problems.push_back(std::string("adversaries.") + name + " " + std::to_string(frac) +
                         " outside [0, 1]");
    }
  }
  if (adv.fraction_sum() >= 1.0) {
    problems.push_back("adversary fractions sum to " + std::to_string(adv.fraction_sum()) +
                       " >= 1 (no honest nodes left)");
  }
  if (!prob_ok(adv.grayhole_forward_p)) {
    problems.push_back("adversaries.grayhole_forward_p " +
                       std::to_string(adv.grayhole_forward_p) + " outside [0, 1]");
  }
  if (adv.flood_posts_per_hour < 0) {
    problems.push_back("adversaries.flood_posts_per_hour negative");
  }
  return problems;
}

const std::vector<NodeChurnEvent> FaultPlan::kNoChurn;

FaultPlan::FaultPlan(const FaultPlanConfig& config, std::uint64_t scenario_seed,
                     std::size_t nodes)
    : config_(config), seed_(scenario_seed) {
  const AdversaryMix& adv = config_.adversaries;
  frame_faults_active_ = config_.link.loss_p > 0 || config_.link.loss_p_reverse > 0 ||
                         config_.link.jitter_max_s > 0 ||
                         (!config_.link.jitter_spikes.empty() &&
                          config_.link.jitter_spike_max_s > 0) ||
                         adv.grayhole_frac > 0;

  // One uniform per node against the cumulative role thresholds — a pure
  // function of (seed, node), independent of node visit order.
  roles_.assign(nodes, AdversaryRole::Honest);
  if (adv.active()) {
    const std::uint64_t role_base = util::derive_seed(seed_, kStreamRole);
    for (std::size_t n = 0; n < nodes; ++n) {
      util::Rng rng(util::derive_seed(role_base, n));
      double u = rng.uniform();
      if (u < adv.flooder_frac) {
        roles_[n] = AdversaryRole::Flooder;
      } else if (u < adv.flooder_frac + adv.blackhole_frac) {
        roles_[n] = AdversaryRole::Blackhole;
      } else if (u < adv.flooder_frac + adv.blackhole_frac + adv.grayhole_frac) {
        roles_[n] = AdversaryRole::Grayhole;
      } else if (u < adv.fraction_sum()) {
        roles_[n] = AdversaryRole::Forger;
      }
    }
  }

  churn_by_node_.assign(nodes, {});
  for (const NodeChurnEvent& c : config_.churn) {
    if (c.node < nodes) churn_by_node_[c.node].push_back(c);
  }
  for (auto& events : churn_by_node_) {
    std::sort(events.begin(), events.end(),
              [](const NodeChurnEvent& a, const NodeChurnEvent& b) {
                return a.down_at < b.down_at;
              });
  }
}

AdversaryRole FaultPlan::role(std::uint32_t node) const {
  return node < roles_.size() ? roles_[node] : AdversaryRole::Honest;
}

bool FaultPlan::node_down(std::uint32_t node, util::SimTime t) const {
  if (node >= churn_by_node_.size()) return false;
  for (const NodeChurnEvent& c : churn_by_node_[node])
    if (t >= c.down_at && t < c.up_at) return true;
  return false;
}

const std::vector<NodeChurnEvent>& FaultPlan::churn_for(std::uint32_t node) const {
  return node < churn_by_node_.size() ? churn_by_node_[node] : kNoChurn;
}

ContactTrace FaultPlan::apply(const ContactTrace& trace) const {
  if (!reshapes_trace()) return trace;
  ContactTrace out;
  std::vector<FaultWindow> blocked;
  for (const ContactInterval& c : trace.contacts()) {
    blocked.clear();
    auto block = [&](util::SimTime s, util::SimTime e) {
      s = std::max(s, c.start);
      e = std::min(e, c.end);
      if (e > s) blocked.push_back({s, e});
    };
    for (std::uint32_t n : {c.a, c.b})
      for (const NodeChurnEvent& ch : churn_for(n)) block(ch.down_at, ch.up_at);
    for (const PartitionWindow& p : config_.partitions) {
      if (p.groups >= 2 && c.a % p.groups != c.b % p.groups) {
        block(p.window.start, p.window.end);
      }
    }
    for (const FaultWindow& w : config_.link.disconnects) block(w.start, w.end);

    if (blocked.empty()) {
      out.add(c);
      continue;
    }
    std::sort(blocked.begin(), blocked.end(),
              [](const FaultWindow& a, const FaultWindow& b) { return a.start < b.start; });
    // Emit the surviving gaps between merged blocked windows. Fragments are
    // strictly positive-length, so a pair never ends and restarts a contact
    // at the same instant (which would make the per-timestamp frame-fault
    // sequence ambiguous between replay engines).
    util::SimTime cursor = c.start;
    for (const FaultWindow& b : blocked) {
      if (b.start > cursor) out.add({cursor, b.start, c.a, c.b});
      cursor = std::max(cursor, b.end);
    }
    if (c.end > cursor) out.add({cursor, c.end, c.a, c.b});
  }
  return out;
}

FrameFault FaultPlan::frame_fault(std::uint32_t from, std::uint32_t to, util::SimTime now,
                                  std::uint64_t seq) const {
  FrameFault out;
  if (!frame_faults_active_) return out;
  const std::uint64_t link_key = (static_cast<std::uint64_t>(from) << 32) | to;
  const std::uint64_t base =
      util::derive_seed(util::derive_seed(util::derive_seed(seed_, kStreamLoss), link_key),
                        time_bits(now));
  util::Rng rng(util::derive_seed(base, seq));

  // Fixed draw order (loss, grayhole, jitter) keeps the stream stable.
  const LinkFaultProfile& link = config_.link;
  double loss = from < to ? link.loss_p
                          : (link.loss_p_reverse < 0 ? link.loss_p : link.loss_p_reverse);
  if (rng.uniform() < loss) out.drop = true;
  if (!out.drop && role(from) == AdversaryRole::Grayhole &&
      rng.uniform() >= config_.adversaries.grayhole_forward_p) {
    out.drop = true;
  }
  double jitter_max = link.jitter_max_s;
  if (link.jitter_spike_max_s > jitter_max && in_any_window(link.jitter_spikes, now)) {
    jitter_max = link.jitter_spike_max_s;
  }
  if (jitter_max > 0) out.extra_busy_s = rng.uniform(0.0, jitter_max);
  return out;
}

std::vector<util::SimTime> FaultPlan::flood_times(std::uint32_t node,
                                                  util::SimTime horizon) const {
  std::vector<util::SimTime> times;
  AdversaryRole r = role(node);
  if (r != AdversaryRole::Flooder && r != AdversaryRole::Forger) return times;
  double rate = config_.adversaries.flood_posts_per_hour;
  if (rate <= 0) return times;
  util::Rng rng(util::derive_seed(util::derive_seed(seed_, kStreamFlood), node));
  double mean_gap = 3600.0 / rate;
  util::SimTime t = 0;
  for (;;) {
    t += rng.exponential(mean_gap);
    if (t >= horizon) break;
    // A dead phone cannot flood either; the draw is consumed regardless so
    // the schedule after a reboot is churn-independent.
    if (!node_down(node, t)) times.push_back(t);
  }
  return times;
}

}  // namespace sos::sim
