// Console table and CSV emission for the benchmark harness. Every figure
// bench prints one fixed-width table (the paper's series) and can mirror it
// to CSV for plotting.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace socl::util {

/// Accumulates rows of stringified cells and renders them with aligned
/// fixed-width columns. Numeric helpers format with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; cells are appended with `cell`/`num`.
  Table& row();
  Table& cell(std::string value);
  Table& num(double value, int precision = 3);
  Table& integer(long long value);

  /// Fixed-width rendering with a header rule.
  std::string render() const;
  void print(std::ostream& out) const;

  /// RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  std::string to_csv() const;
  /// Writes CSV to `path`; throws std::runtime_error on I/O failure.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

}  // namespace socl::util
