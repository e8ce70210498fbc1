#include "deploy/report.hpp"

#include <cstdio>

namespace sos::deploy {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::set_row(std::size_t index, std::vector<std::string> cells) {
  if (index >= rows_.size()) rows_.resize(index + 1);
  rows_[index] = std::move(cells);
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  // Each column is its width plus one space either side, between borders.
  std::string out;
  auto row_line = [&](const std::vector<std::string>& row) {
    out += "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      std::string cell = c < row.size() ? row[c] : "";
      cell.resize(widths[c], ' ');
      out += " " + cell + " |";
    }
    out += "\n";
  };
  auto sep_line = [&] {
    out += "+";
    for (std::size_t w : widths) out += std::string(w + 2, '-') + "+";
    out += "\n";
  };

  sep_line();
  row_line(headers_);
  sep_line();
  for (const auto& row : rows_)
    if (!row.empty()) row_line(row);
  sep_line();
  return out;
}

void Table::print() const {
  std::fputs(render().c_str(), stdout);
}

std::string fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::vector<std::string> compare_row(const std::string& metric, double paper, double measured,
                                     int decimals) {
  return {metric, fmt(paper, decimals), fmt(measured, decimals)};
}

void print_heading(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

}  // namespace sos::deploy
