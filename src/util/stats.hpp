// Small statistics toolkit for the evaluation harness: empirical CDFs
// (Fig 4c/4d) and a 2D histogram used to render the Fig 4b activity map as
// ASCII.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sos::util {

/// Empirical CDF over a sample set.
class Cdf {
 public:
  void add(double v) { sorted_ = false; samples_.push_back(v); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// P[X <= x].
  double at(double x) const;
  /// Smallest x with P[X <= x] >= q, q in [0,1]. Returns 0 on empty.
  double quantile(double q) const;

  /// Fraction of samples strictly greater than x.
  double fraction_above(double x) const { return empty() ? 0.0 : 1.0 - at(x); }

 private:
  void sort() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// 2D histogram over a rectangle; render() returns an ASCII heat map.
class Histogram2d {
 public:
  Histogram2d(double x0, double y0, double x1, double y1, std::size_t nx, std::size_t ny);

  void add(double x, double y);
  std::uint64_t cell(std::size_t ix, std::size_t iy) const;
  std::uint64_t total() const { return total_; }
  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }

  /// Fraction of cells with at least one sample (spatial coverage).
  double occupancy() const;

  /// ASCII heat map, one character per cell, ' ' for empty, '.:-=+*#%@'
  /// scaled by log count; row 0 = top (max y).
  std::string render() const;

 private:
  double x0_, y0_, x1_, y1_;
  std::size_t nx_, ny_;
  std::vector<std::uint64_t> cells_;
  std::uint64_t total_ = 0;
};

}  // namespace sos::util
