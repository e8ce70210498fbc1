#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace sos::util {

void Cdf::sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::at(double x) const {
  if (samples_.empty()) return 0.0;
  sort();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  sort();
  q = std::clamp(q, 0.0, 1.0);
  std::size_t idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples_.size())));
  if (idx > 0) --idx;
  return samples_[std::min(idx, samples_.size() - 1)];
}

Histogram2d::Histogram2d(double x0, double y0, double x1, double y1, std::size_t nx,
                         std::size_t ny)
    : x0_(x0), y0_(y0), x1_(x1), y1_(y1), nx_(nx), ny_(ny), cells_(nx * ny, 0) {}

void Histogram2d::add(double x, double y) {
  if (x < x0_ || x >= x1_ || y < y0_ || y >= y1_) return;
  auto ix = static_cast<std::size_t>((x - x0_) / (x1_ - x0_) * static_cast<double>(nx_));
  auto iy = static_cast<std::size_t>((y - y0_) / (y1_ - y0_) * static_cast<double>(ny_));
  ix = std::min(ix, nx_ - 1);
  iy = std::min(iy, ny_ - 1);
  ++cells_[iy * nx_ + ix];
  ++total_;
}

std::uint64_t Histogram2d::cell(std::size_t ix, std::size_t iy) const {
  return cells_[iy * nx_ + ix];
}

double Histogram2d::occupancy() const {
  std::size_t nonzero = 0;
  for (auto c : cells_)
    if (c > 0) ++nonzero;
  return static_cast<double>(nonzero) / static_cast<double>(cells_.size());
}

std::string Histogram2d::render() const {
  static const char kRamp[] = " .:-=+*#%@";
  std::uint64_t maxc = 0;
  for (auto c : cells_) maxc = std::max(maxc, c);
  std::string out;
  out.reserve((nx_ + 1) * ny_);
  for (std::size_t row = 0; row < ny_; ++row) {
    std::size_t iy = ny_ - 1 - row;  // top row = max y
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      std::uint64_t c = cell(ix, iy);
      if (c == 0 || maxc == 0) {
        out.push_back(' ');
      } else {
        double f = std::log1p(static_cast<double>(c)) / std::log1p(static_cast<double>(maxc));
        auto idx = static_cast<std::size_t>(f * 9.0);
        out.push_back(kRamp[std::min<std::size_t>(idx + 1, 9)]);
      }
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace sos::util
