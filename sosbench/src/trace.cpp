#include "trace.hpp"

#include <stdexcept>

#include "mw/sos_node.hpp"
#include "sim/multipeer.hpp"
#include "sim/scheduler.hpp"

namespace sosbench {

int Tracer::begin(std::string name, int parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_s = seconds_between(origin_, Clock::now());
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, Clock::now());
}

double Tracer::child_total(int parent, const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_)
    if (s.parent == parent && s.name == name) total += s.duration();
  return total;
}

double Tracer::children_total(int parent) const {
  double total = 0;
  for (const Span& s : spans_)
    if (s.parent == parent) total += s.duration();
  return total;
}

namespace {

class CallTimer {
 public:
  explicit CallTimer(TimedScheme::Stat& stat) : stat_(stat), start_(Clock::now()) {}
  ~CallTimer() {
    ++stat_.calls;
    stat_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count());
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  TimedScheme::Stat& stat_;
  Clock::time_point start_;
};

}  // namespace

const char* TimedScheme::method_name(int m) {
  static const char* const names[kMethodCount] = {
      "advertisement", "should_connect", "plan_requests", "may_send",
      "should_carry",  "summary_blob",   "on_peer_blob",  "on_encounter",
      "copies_to_send", "on_sent",       "on_received_copies", "on_published"};
  return names[m];
}

std::map<sos::pki::UserId, std::uint32_t> TimedScheme::advertisement(
    const sos::mw::RoutingContext& ctx) {
  CallTimer t(stats_[kAdvertisement]);
  return inner_->advertisement(ctx);
}

bool TimedScheme::should_connect(const sos::mw::RoutingContext& ctx,
                                 const std::map<sos::pki::UserId, std::uint32_t>& advertised) {
  CallTimer t(stats_[kShouldConnect]);
  return inner_->should_connect(ctx, advertised);
}

sos::mw::RequestPlan TimedScheme::plan_requests(const sos::mw::RoutingContext& ctx,
                                                const sos::mw::PeerView& peer) {
  CallTimer t(stats_[kPlanRequests]);
  return inner_->plan_requests(ctx, peer);
}

bool TimedScheme::may_send(const sos::mw::RoutingContext& ctx, const sos::bundle::Bundle& b,
                           const sos::mw::PeerView& peer) {
  CallTimer t(stats_[kMaySend]);
  return inner_->may_send(ctx, b, peer);
}

bool TimedScheme::should_carry(const sos::mw::RoutingContext& ctx,
                               const sos::bundle::Bundle& b) {
  CallTimer t(stats_[kShouldCarry]);
  return inner_->should_carry(ctx, b);
}

sos::util::Bytes TimedScheme::summary_blob(const sos::mw::RoutingContext& ctx) {
  CallTimer t(stats_[kSummaryBlob]);
  return inner_->summary_blob(ctx);
}

void TimedScheme::on_peer_blob(const sos::pki::UserId& peer, sos::util::ByteView blob) {
  CallTimer t(stats_[kOnPeerBlob]);
  inner_->on_peer_blob(peer, blob);
}

void TimedScheme::on_encounter(const sos::mw::RoutingContext& ctx,
                               const sos::pki::UserId& peer) {
  CallTimer t(stats_[kOnEncounter]);
  inner_->on_encounter(ctx, peer);
}

std::uint32_t TimedScheme::copies_to_send(const sos::mw::RoutingContext& ctx,
                                          const sos::bundle::Bundle& b,
                                          const sos::mw::PeerView& peer) {
  CallTimer t(stats_[kCopiesToSend]);
  return inner_->copies_to_send(ctx, b, peer);
}

void TimedScheme::on_sent(const sos::mw::RoutingContext& ctx, const sos::bundle::Bundle& b,
                          const sos::mw::PeerView& peer) {
  CallTimer t(stats_[kOnSent]);
  inner_->on_sent(ctx, b, peer);
}

void TimedScheme::on_received_copies(const sos::bundle::BundleId& id, std::uint32_t copies) {
  CallTimer t(stats_[kOnReceivedCopies]);
  inner_->on_received_copies(id, copies);
}

void TimedScheme::on_published(const sos::bundle::BundleId& id) {
  CallTimer t(stats_[kOnPublished]);
  inner_->on_published(id);
}

std::vector<const TimedScheme*> install_timed_schemes(sos::deploy::ReplaySession& session,
                                                      const sos::deploy::ScenarioConfig& config) {
  sos::sim::Scheduler sched(session.sim_time());
  sos::sim::MpcNetwork net(sched, session.node_count(), config.radio);
  std::vector<const TimedScheme*> out;
  for (std::size_t i = 0; i < session.node_count(); ++i) {
    sos::mw::SosNode& node = session.node(i);
    auto inner = sos::mw::make_scheme(node.scheme_name());
    if (inner == nullptr) throw std::runtime_error("no factory scheme named " + node.scheme_name());
    node.attach(sched, net.endpoint(static_cast<sos::sim::PeerId>(i)));
    auto timed = std::make_unique<TimedScheme>(std::move(inner));
    out.push_back(timed.get());
    node.set_scheme(std::move(timed));
    node.detach();
  }
  return out;
}

std::array<TimedScheme::Stat, TimedScheme::kMethodCount> routing_totals(
    const std::vector<const TimedScheme*>& schemes) {
  std::array<TimedScheme::Stat, TimedScheme::kMethodCount> total{};
  for (const TimedScheme* s : schemes) {
    for (int m = 0; m < TimedScheme::kMethodCount; ++m) {
      total[static_cast<std::size_t>(m)].calls += s->stats()[static_cast<std::size_t>(m)].calls;
      total[static_cast<std::size_t>(m)].ns += s->stats()[static_cast<std::size_t>(m)].ns;
    }
  }
  return total;
}

}  // namespace sosbench
