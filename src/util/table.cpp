#include "util/table.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace socl::util {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

Table& Table::row() {
  cells_.emplace_back();
  cells_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(std::string value) {
  if (cells_.empty()) row();
  if (cells_.back().size() >= headers_.size()) {
    throw std::out_of_range("Table::cell: row already full");
  }
  cells_.back().push_back(std::move(value));
  return *this;
}

Table& Table::num(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return cell(out.str());
}

Table& Table::integer(long long value) { return cell(std::to_string(value)); }

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& value = c < row.size() ? row[c] : std::string();
      out << std::left << std::setw(static_cast<int>(widths[c]) + 2) << value;
    }
    out << '\n';
  };
  emit_row(headers_);
  std::size_t rule = 0;
  for (std::size_t w : widths) rule += w + 2;
  out << std::string(rule, '-') << '\n';
  for (const auto& row : cells_) emit_row(row);
  return out.str();
}

void Table::print(std::ostream& out) const { out << render(); }

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

std::string Table::to_csv() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out << ',';
    out << csv_escape(headers_[c]);
  }
  out << '\n';
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ',';
      out << csv_escape(row[c]);
    }
    out << '\n';
  }
  return out.str();
}

void Table::write_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("Table::write_csv: cannot open " + path);
  file << to_csv();
  if (!file) throw std::runtime_error("Table::write_csv: write failed");
}

}  // namespace socl::util
