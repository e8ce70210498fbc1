#include "util/rng.hpp"

#include <cmath>

namespace sos::util {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  // Mix the base once so adjacent bases decorrelate, then offset by the
  // index on the golden-ratio stride splitmix64 was designed around.
  std::uint64_t x = base;
  std::uint64_t mixed = splitmix64(x);
  x = mixed ^ (index * 0x9e3779b97f4a7c15ULL);
  return splitmix64(x);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Lemire-style rejection to remove modulo bias.
  std::uint64_t threshold = (0 - n) % n;
  while (true) {
    std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::chance(double p) {
  return uniform() < p;
}

Rng Rng::fork() {
  return Rng(next() ^ 0xa02bdbf7bb3c0a7ULL);
}

}  // namespace sos::util
