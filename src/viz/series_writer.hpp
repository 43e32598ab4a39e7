#pragma once
// CSV table/series output for the bench harnesses: every figure bench
// prints its data both as an aligned text table (human) and optionally as
// CSV (replotting).

#include <iosfwd>
#include <string>
#include <vector>

namespace spice::viz {

/// Column-oriented numeric table with a header row.
class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Add one row; must match the column count.
  void add_row(const std::vector<double>& values);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& columns() const { return columns_; }
  [[nodiscard]] const std::vector<double>& row(std::size_t i) const;

  /// Write as CSV.
  void write_csv(std::ostream& os) const;
  /// Write as a JSON array of objects, one object per row keyed by column
  /// name (non-finite values become null). This is the shared exporter for
  /// bench tables and obs metric snapshots (viz/metrics_table.hpp).
  void write_json(std::ostream& os) const;
  /// Write as an aligned, human-readable table with `precision` decimals.
  void write_pretty(std::ostream& os, int precision = 3) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace spice::viz
