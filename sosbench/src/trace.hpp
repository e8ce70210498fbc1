// In-memory spans and the routing-scheme timing decorator. Everything is
// measured from outside the middleware: spans wrap calls into public APIs,
// and the decorator wraps each node's RoutingScheme.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "deploy/replay.hpp"
#include "mw/routing.hpp"

namespace sosbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  double start_s = 0;  // since the tracer's origin
  double end_s = 0;
  int parent = -1;     // index into the span list, -1 for a root
  double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(std::string name, int parent = -1);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of the direct children of `parent` named `name`.
  double child_total(int parent, const std::string& name) const;
  /// Summed duration of all direct children of `parent`.
  double children_total(int parent) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name, int parent = -1)
      : tracer_(t), id_(t.begin(std::move(name), parent)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Pass-through RoutingScheme that counts and times every decision call.
/// Routing calls are far too many for one span each (a two-day hotspot
/// replay makes hundreds of thousands of may_send calls), so they are
/// aggregated per method. One instance per node; a node runs on one worker
/// at a time, so the counters need no synchronization.
class TimedScheme final : public sos::mw::RoutingScheme {
 public:
  enum Method {
    kAdvertisement,
    kShouldConnect,
    kPlanRequests,
    kMaySend,
    kShouldCarry,
    kSummaryBlob,
    kOnPeerBlob,
    kOnEncounter,
    kCopiesToSend,
    kOnSent,
    kOnReceivedCopies,
    kOnPublished,
    kMethodCount
  };
  static const char* method_name(int m);

  struct Stat {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };

  explicit TimedScheme(std::unique_ptr<sos::mw::RoutingScheme> inner)
      : inner_(std::move(inner)) {}

  const std::array<Stat, kMethodCount>& stats() const { return stats_; }

  std::string name() const override { return inner_->name(); }
  std::map<sos::pki::UserId, std::uint32_t> advertisement(
      const sos::mw::RoutingContext& ctx) override;
  bool should_connect(const sos::mw::RoutingContext& ctx,
                      const std::map<sos::pki::UserId, std::uint32_t>& advertised) override;
  sos::mw::RequestPlan plan_requests(const sos::mw::RoutingContext& ctx,
                                     const sos::mw::PeerView& peer) override;
  bool may_send(const sos::mw::RoutingContext& ctx, const sos::bundle::Bundle& b,
                const sos::mw::PeerView& peer) override;
  bool should_carry(const sos::mw::RoutingContext& ctx, const sos::bundle::Bundle& b) override;
  sos::util::Bytes summary_blob(const sos::mw::RoutingContext& ctx) override;
  void on_peer_blob(const sos::pki::UserId& peer, sos::util::ByteView blob) override;
  void on_encounter(const sos::mw::RoutingContext& ctx, const sos::pki::UserId& peer) override;
  std::uint32_t copies_to_send(const sos::mw::RoutingContext& ctx, const sos::bundle::Bundle& b,
                               const sos::mw::PeerView& peer) override;
  void on_sent(const sos::mw::RoutingContext& ctx, const sos::bundle::Bundle& b,
               const sos::mw::PeerView& peer) override;
  void on_received_copies(const sos::bundle::BundleId& id, std::uint32_t copies) override;
  void on_published(const sos::bundle::BundleId& id) override;
  void save_state(sos::util::Writer& w) const override { inner_->save_state(w); }
  bool load_state(sos::util::Reader& r) override { return inner_->load_state(r); }

 private:
  std::unique_ptr<sos::mw::RoutingScheme> inner_;
  std::array<Stat, kMethodCount> stats_{};
};

/// Wrap every node's scheme in a TimedScheme around a fresh
/// make_scheme(node.scheme_name()). Call on a freshly constructed session
/// (sim time 0). SosNode::set_scheme needs a scheduler (it refreshes the
/// advertisement through RoutingManager::ctx()), and the session keeps
/// every node detached between segments, so each node is attached to a
/// throwaway scheduler/network endpoint for the swap and detached again.
/// Returns the decorators, owned by the nodes.
std::vector<const TimedScheme*> install_timed_schemes(sos::deploy::ReplaySession& session,
                                                      const sos::deploy::ScenarioConfig& config);

/// Per-method totals over all decorators.
std::array<TimedScheme::Stat, TimedScheme::kMethodCount> routing_totals(
    const std::vector<const TimedScheme*>& schemes);

}  // namespace sosbench
