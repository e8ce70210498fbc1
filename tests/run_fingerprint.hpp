// What a scenario run simulated: the oracle's counts, the contact count and
// every network and NodeStats counter. The sweep, soak and fault suites pin
// it bitwise across engines, worker counts and checkpoint/resume; gtest
// prints a mismatch field by field.
#pragma once

#include <cstdint>
#include <ostream>

#include "deploy/scenario.hpp"

namespace sos::mw {
inline void PrintTo(const NodeStats& s, std::ostream* os) {
  for_each_stat([os](const char* name, std::uint64_t v) { *os << ' ' << name << '=' << v; }, s);
}
}  // namespace sos::mw

struct RunFingerprint {
  std::size_t posts = 0, deliveries = 0, carries = 0, delivered_of_posted = 0;
  std::uint64_t contacts = 0;
  SOS_NET_COUNTERS(SOS_NET_COUNTER_MEMBER)
  sos::mw::NodeStats totals;
  bool operator==(const RunFingerprint&) const = default;
};

inline RunFingerprint fingerprint(const sos::deploy::ScenarioResult& r) {
  RunFingerprint f;
  f.posts = r.oracle.post_count();
  f.deliveries = r.oracle.delivery_count();
  f.carries = r.oracle.carry_count();
  f.delivered_of_posted = r.oracle.delivered_of_posted();
  f.contacts = r.contacts;
  sos::deploy::for_each_net_counter([](const char*, auto& a, auto b) { a = b; }, f, r);
  f.totals = r.totals;
  return f;
}

inline void PrintTo(const RunFingerprint& f, std::ostream* os) {
  *os << "posts=" << f.posts << " deliveries=" << f.deliveries << " carries=" << f.carries
      << " delivered_of_posted=" << f.delivered_of_posted << " contacts=" << f.contacts;
  sos::deploy::for_each_net_counter(
      [os](const char* name, auto v) { *os << ' ' << name << '=' << v; }, f);
  *os << " totals:";
  PrintTo(f.totals, os);
}
