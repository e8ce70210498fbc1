// Deployment harness tests: oracle metric formulas on hand-built records,
// report formatting, and end-to-end scenario invariants (determinism,
// security counters clean, epidemic-dominates-interest, figure-level sanity
// on a shortened Gainesville run).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "deploy/oracle.hpp"
#include "deploy/report.hpp"
#include "deploy/scenario.hpp"
#include "util/time.hpp"

namespace sd = sos::deploy;
namespace sp = sos::pki;
namespace su = sos::util;

namespace {
sp::UserId uid(const std::string& s) { return sp::user_id_from_name(s); }

/// Oracle with 2 posts by "pub", subscribers "s1" (gets both, 1-hop) and
/// "s2" (gets one, 2-hop).
sd::MetricsOracle tiny_oracle() {
  sd::MetricsOracle o;
  o.set_subscriptions({{uid("s1"), {uid("pub")}}, {uid("s2"), {uid("pub")}}});
  o.record_post({{uid("pub"), 1}, uid("pub"), 0.0, {100, 100}});
  o.record_post({{uid("pub"), 2}, uid("pub"), su::hours(1), {200, 200}});
  o.record_delivery({{uid("pub"), 1}, uid("s1"), su::hours(2), 1, {10, 10}});
  o.record_delivery({{uid("pub"), 2}, uid("s1"), su::hours(30), 1, {20, 20}});
  o.record_delivery({{uid("pub"), 1}, uid("s2"), su::hours(50), 2, {30, 30}});
  return o;
}
}  // namespace

TEST(Oracle, Scalars) {
  auto o = tiny_oracle();
  EXPECT_EQ(o.post_count(), 2u);
  EXPECT_EQ(o.delivery_count(), 3u);
  EXPECT_EQ(o.subscription_count(), 2u);
  EXPECT_NEAR(o.one_hop_fraction(), 2.0 / 3.0, 1e-9);
  // deliverable = 2 posts x 2 followers = 4; delivered = 3.
  EXPECT_NEAR(o.overall_delivery_ratio(), 0.75, 1e-9);
  auto hops = o.hop_histogram();
  EXPECT_EQ(hops[1], 2u);
  EXPECT_EQ(hops[2], 1u);
}

TEST(Oracle, DelayCdfSplitsByHops) {
  auto o = tiny_oracle();
  auto all = o.delay_cdf(false);
  auto one = o.delay_cdf(true);
  EXPECT_EQ(all.count(), 3u);
  EXPECT_EQ(one.count(), 2u);
  // delays: 2h, 29h, 50h (all); 2h, 29h (1-hop)
  EXPECT_NEAR(all.at(su::hours(24)), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(one.at(su::hours(24)), 0.5, 1e-9);
  EXPECT_NEAR(all.at(su::hours(94)), 1.0, 1e-9);
}

TEST(Oracle, SubscriptionRatioCdf) {
  auto o = tiny_oracle();
  auto cdf = o.subscription_ratio_cdf(false);
  ASSERT_EQ(cdf.count(), 2u);  // two subscriptions
  // s1: 2/2 = 1.0; s2: 1/2 = 0.5.
  EXPECT_NEAR(cdf.fraction_above(0.8), 0.5, 1e-9);
  EXPECT_NEAR(cdf.fraction_above(0.4), 1.0, 1e-9);
  auto one_hop = o.subscription_ratio_cdf(true);
  // 1-hop only: s1 keeps 1.0, s2 drops to 0.
  EXPECT_NEAR(one_hop.fraction_above(0.8), 0.5, 1e-9);
  EXPECT_NEAR(one_hop.at(0.0), 0.5, 1e-9);
}

TEST(Oracle, SubscriptionWithNoPostsIsExcluded) {
  sd::MetricsOracle o;
  o.set_subscriptions({{uid("s1"), {uid("silent")}}});
  EXPECT_EQ(o.subscription_ratio_cdf(false).count(), 0u);
}

TEST(Oracle, ActivityMaps) {
  auto o = tiny_oracle();
  auto blue = o.creation_map(1000, 1000, 10, 10);
  auto red = o.dissemination_map(1000, 1000, 10, 10);
  EXPECT_EQ(blue.total(), 2u);
  EXPECT_EQ(red.total(), 0u);  // no carries recorded in tiny_oracle
  o.record_carry({{uid("pub"), 1}, uid("s1"), 1.0, {500, 500}});
  EXPECT_EQ(o.dissemination_map(1000, 1000, 10, 10).total(), 1u);
}

TEST(Report, FormatHelpers) {
  EXPECT_EQ(sd::fmt(1.23456, 2), "1.23");
  auto row = sd::compare_row("x", 1.0, 2.0, 1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1], "1.0");
  EXPECT_EQ(row[2], "2.0");
}

TEST(Report, TableLinesShareOneShape) {
  sd::Table t({"metric", "paper", "measured"});
  t.add_row({"delivery ratio", "0.81", "0.474"});
  t.add_row({"x"});  // a short row is padded to every column
  t.set_row(4, {"1-hop share", "0.826", "0.60"});  // rows 2-3 unset: skipped
  std::string text = t.render();
  std::vector<std::string> lines;
  for (std::size_t start = 0, nl; (nl = text.find('\n', start)) != std::string::npos;
       start = nl + 1)
    lines.push_back(text.substr(start, nl - start));
  ASSERT_EQ(lines.size(), 7u);  // 3 separators, the header, 3 rows
  // Separators put '+' exactly where rows put '|', and nowhere else.
  auto borders = [](const std::string& line) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < line.size(); ++i)
      if (line[i] == '+' || line[i] == '|') at.push_back(i);
    return at;
  };
  for (const std::string& line : lines) {
    EXPECT_EQ(line.size(), lines[0].size()) << line;
    EXPECT_EQ(borders(line), borders(lines[0])) << line;
  }
  EXPECT_EQ(lines[0], "+----------------+-------+----------+");
  EXPECT_EQ(lines[3], "| delivery ratio | 0.81  | 0.474    |");
}

// --- scenario end-to-end --------------------------------------------------

namespace {
sd::ScenarioConfig short_config(const std::string& scheme, std::uint64_t seed = 42) {
  auto config = sd::gainesville_config(scheme, seed);
  config.days = 2.0;
  config.total_posts_target = 80.0;
  return config;
}
}  // namespace

TEST(Scenario, ProducesTrafficAndDeliveries) {
  auto result = sd::run_scenario(short_config("interest"));
  EXPECT_GT(result.oracle.post_count(), 40u);
  EXPECT_GT(result.oracle.delivery_count(), 0u);
  EXPECT_GT(result.contacts, 0u);
  EXPECT_GT(result.totals.sessions_established, 0u);
  EXPECT_EQ(result.oracle.subscription_count(), 46u);  // Fig 4a graph
  EXPECT_EQ(result.social.edge_count(), 46u);
}

TEST(Scenario, SecurityCountersCleanInHonestRun) {
  auto result = sd::run_scenario(short_config("interest"));
  EXPECT_EQ(result.totals.bundle_sig_rejected, 0u);
  EXPECT_EQ(result.totals.bundle_cert_rejected, 0u);
  EXPECT_EQ(result.totals.handshake_cert_rejected, 0u);
  EXPECT_EQ(result.totals.decrypt_failures, 0u);
}

TEST(Scenario, DeterministicForSameSeed) {
  auto r1 = sd::run_scenario(short_config("interest", 7));
  auto r2 = sd::run_scenario(short_config("interest", 7));
  EXPECT_EQ(r1.oracle.post_count(), r2.oracle.post_count());
  EXPECT_EQ(r1.oracle.delivery_count(), r2.oracle.delivery_count());
  EXPECT_EQ(r1.contacts, r2.contacts);
  EXPECT_EQ(r1.wire_bytes, r2.wire_bytes);
}

TEST(Scenario, DifferentSeedsDiffer) {
  auto r1 = sd::run_scenario(short_config("interest", 1));
  auto r2 = sd::run_scenario(short_config("interest", 2));
  EXPECT_NE(r1.wire_bytes, r2.wire_bytes);
}

TEST(Scenario, EpidemicDeliversAtLeastAsMuchAsInterest) {
  auto epidemic = sd::run_scenario(short_config("epidemic"));
  auto interest = sd::run_scenario(short_config("interest"));
  EXPECT_GE(epidemic.oracle.delivery_count(), interest.oracle.delivery_count());
  // ...and pays for it in transmissions.
  EXPECT_GE(epidemic.totals.bundles_sent, interest.totals.bundles_sent);
}

TEST(Scenario, DirectDeliveryIsAllOneHop) {
  auto result = sd::run_scenario(short_config("direct"));
  if (result.oracle.delivery_count() > 0) {
    EXPECT_DOUBLE_EQ(result.oracle.one_hop_fraction(), 1.0);
  }
}

TEST(Scenario, HopCountsAreConsistent) {
  auto result = sd::run_scenario(short_config("epidemic"));
  for (const auto& d : result.oracle.deliveries()) {
    EXPECT_GE(d.hops, 1);
    EXPECT_LT(d.hops, 10);
  }
}

TEST(Scenario, CustomSocialGraphIsHonored) {
  auto config = short_config("interest");
  sos::graph::Digraph g(10);
  g.add_edge(1, 0);  // only one subscription
  config.social = g;
  auto result = sd::run_scenario(config);
  EXPECT_EQ(result.oracle.subscription_count(), 1u);
  // All deliveries can only be user1 <- user0 posts.
  for (const auto& d : result.oracle.deliveries())
    EXPECT_EQ(d.id.origin, sp::user_id_from_name("user0"));
}

TEST(Scenario, ScalesToMoreNodes) {
  auto config = short_config("interest");
  config.nodes = 20;
  config.days = 1.0;
  auto result = sd::run_scenario(config);
  EXPECT_GT(result.oracle.post_count(), 0u);
  EXPECT_GT(result.oracle.subscription_count(), 0u);  // sampled community graph
}
