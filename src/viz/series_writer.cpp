#include "viz/series_writer.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace spice::viz {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  SPICE_REQUIRE(!columns_.empty(), "table needs at least one column");
}

void Table::add_row(const std::vector<double>& values) {
  SPICE_REQUIRE(values.size() == columns_.size(), "row size does not match column count");
  rows_.push_back(values);
}

const std::vector<double>& Table::row(std::size_t i) const {
  SPICE_REQUIRE(i < rows_.size(), "row index out of range");
  return rows_[i];
}

void Table::write_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << columns_[c] << (c + 1 < columns_.size() ? "," : "\n");
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c] << (c + 1 < row.size() ? "," : "\n");
    }
  }
}

void Table::write_json(std::ostream& os) const {
  os << "[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << (r == 0 ? "\n" : ",\n") << " {";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) os << ", ";
      // Column names may contain quotes/backslashes in principle.
      os << json_quote(columns_[c]) << ": ";
      const double v = rows_[r][c];
      if (std::isfinite(v)) {
        os << v;
      } else {
        os << "null";  // NaN/inf are not valid JSON numbers
      }
    }
    os << "}";
  }
  os << "\n]\n";
}

void Table::write_pretty(std::ostream& os, int precision) const {
  // Format all cells, then pad to column widths.
  std::vector<std::vector<std::string>> cells;
  cells.push_back(columns_);
  for (const auto& row : rows_) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (double v : row) {
      std::ostringstream ss;
      ss << std::fixed << std::setprecision(precision) << v;
      line.push_back(ss.str());
    }
    cells.push_back(std::move(line));
  }
  std::vector<std::size_t> widths(columns_.size(), 0);
  for (const auto& line : cells) {
    for (std::size_t c = 0; c < line.size(); ++c) {
      widths[c] = std::max(widths[c], line[c].size());
    }
  }
  for (std::size_t l = 0; l < cells.size(); ++l) {
    for (std::size_t c = 0; c < cells[l].size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << cells[l][c]
         << (c + 1 < cells[l].size() ? "  " : "\n");
    }
    if (l == 0) {
      std::size_t total = 0;
      for (std::size_t w : widths) total += w;
      os << std::string(total + 2 * (widths.size() - 1), '-') << '\n';
    }
  }
}

}  // namespace spice::viz
