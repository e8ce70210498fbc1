// MetricsOracle: the omniscient observer of a deployment run. Records every
// post creation, relay carry, and subscriber delivery with simulated-world
// locations, then answers exactly the questions the paper's Fig 4b/4c/4d
// ask: where did activity happen, what were the delivery delays (1-hop vs
// all), and how did delivery ratio distribute across subscriptions.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bundle/bundle.hpp"
#include "graph/digraph.hpp"
#include "sim/mobility.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace sos::deploy {

struct PostRecord {
  bundle::BundleId id;
  pki::UserId author;
  util::SimTime created = 0;
  sim::Vec2 location;  // where the author stood when posting (Fig 4b blue)

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.id, s.author, s.created, s.location.x, s.location.y);
  }
};

struct DeliveryRecord {
  bundle::BundleId id;
  pki::UserId subscriber;
  util::SimTime at = 0;
  std::uint8_t hops = 0;
  sim::Vec2 location;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.id, s.subscriber, s.at, s.hops, s.location.x, s.location.y);
  }
};

struct CarryRecord {
  bundle::BundleId id;
  pki::UserId carrier;
  util::SimTime at = 0;
  sim::Vec2 location;  // where the message was passed (Fig 4b red)

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.id, s.carrier, s.at, s.location.x, s.location.y);
  }
};

class MetricsOracle {
 public:
  void record_post(const PostRecord& r) { posts_.push_back(r); }
  void record_delivery(const DeliveryRecord& r) { deliveries_.push_back(r); }
  void record_carry(const CarryRecord& r) { carries_.push_back(r); }

  /// follower -> set of publishers (directed follow edges) keyed by user id.
  void set_subscriptions(const std::map<pki::UserId, std::set<pki::UserId>>& follows) {
    follows_ = follows;
  }

  // --- §VI-B scalars -----------------------------------------------------------
  std::size_t post_count() const { return posts_.size(); }
  std::size_t delivery_count() const { return deliveries_.size(); }
  std::size_t carry_count() const { return carries_.size(); }
  std::size_t subscription_count() const;
  /// Fraction of deliveries that took exactly one D2D hop (paper: 0.826).
  double one_hop_fraction() const;
  std::map<int, std::size_t> hop_histogram() const;
  /// delivered / (deliverable = sum over posts of author's follower count).
  double overall_delivery_ratio() const;
  /// Deliveries whose bundle id matches a recorded post. Adversarial junk
  /// (flooder/forger publishes) is never recorded as a post, but unsigned
  /// deployments still deliver it to the adversary's followers — this is
  /// the honest-workload delivery count the disaster benches report.
  std::size_t delivered_of_posted() const;
  /// delivered_of_posted / deliverable (the fault-cell delivery column).
  double posted_delivery_ratio() const;

  // --- Fig 4c: delay CDFs ----------------------------------------------------
  /// Delivery delays in seconds; `one_hop_only` restricts to 1-hop
  /// deliveries (the paper plots both series).
  util::Cdf delay_cdf(bool one_hop_only) const;

  // --- Fig 4d: per-subscription delivery-ratio CDF -----------------------------
  /// One sample per (follower, publisher-with-posts) subscription pair.
  util::Cdf subscription_ratio_cdf(bool one_hop_only) const;

  // --- Fig 4b: activity map -----------------------------------------------------
  /// 2D histograms of post-creation (blue) and dissemination (red) points.
  util::Histogram2d creation_map(double w, double h, std::size_t nx, std::size_t ny) const;
  util::Histogram2d dissemination_map(double w, double h, std::size_t nx, std::size_t ny) const;

  const std::vector<PostRecord>& posts() const { return posts_; }
  const std::vector<DeliveryRecord>& deliveries() const { return deliveries_; }
  const std::vector<CarryRecord>& carries() const { return carries_; }

 private:
  std::vector<PostRecord> posts_;
  std::vector<DeliveryRecord> deliveries_;
  std::vector<CarryRecord> carries_;
  std::map<pki::UserId, std::set<pki::UserId>> follows_;
};

}  // namespace sos::deploy
