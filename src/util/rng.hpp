// Deterministic PRNG for simulations: xoshiro256** seeded via splitmix64.
// Every scenario takes an explicit seed so runs are exactly reproducible;
// std::mt19937 is avoided because distribution implementations differ across
// standard libraries and would break cross-platform determinism.
#pragma once

#include <cstdint>
#include <vector>

namespace sos::util {

/// Derive a decorrelated seed from (base, index) via splitmix64 — the
/// per-cell streams of a scenario sweep. Nearby indices (0, 1, 2, ...) give
/// unrelated streams, and the result depends only on the two inputs, never
/// on execution order, so sweeps stay reproducible at any thread count.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedbeefcafef00dULL);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform in [0, n) without modulo bias (n must be > 0).
  std::uint64_t below(std::uint64_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Exponential with the given mean (>0).
  double exponential(double mean);

  /// True with probability p.
  bool chance(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Uniformly chosen element (container must be non-empty).
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(below(v.size()))];
  }

  /// Derive an independent child stream (for per-node RNGs).
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace sos::util
