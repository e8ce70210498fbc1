// Plain-text report helpers: aligned tables and paper-vs-measured rows for
// the figure-regeneration benches and EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

namespace sos::deploy {

/// Fixed-width table printer (stdout).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  /// Place a row at a fixed position no matter the call order — sweep
  /// workers finish out of order but the printed grid must not. Grows the
  /// table as needed; rows never set are skipped when printing.
  void set_row(std::size_t index, std::vector<std::string> cells);
  /// The bordered grid, one line per row, every line the same width.
  std::string render() const;
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double v, int decimals = 3);

/// "paper vs measured" convenience row.
std::vector<std::string> compare_row(const std::string& metric, double paper, double measured,
                                     int decimals = 2);

void print_heading(const std::string& title);

}  // namespace sos::deploy
