// Tests for table rendering and CSV emission.
#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace socl::util {
namespace {

TEST(Table, RejectsEmptyHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, BuildsRowsWithHelpers) {
  Table table({"name", "value", "count"});
  table.row().cell("x").num(1.5, 1).integer(7);
  EXPECT_EQ(table.to_csv(), "name,value,count\nx,1.5,7\n");
}

TEST(Table, CellOverflowThrows) {
  Table table({"only"});
  table.row().cell("a");
  EXPECT_THROW(table.cell("b"), std::out_of_range);
}

TEST(Table, RenderAlignsColumns) {
  Table table({"a", "longheader"});
  table.row().cell("wide-cell-content").cell("x");
  const std::string text = table.render();
  // Header line then rule then row.
  std::istringstream stream(text);
  std::string header, rule, row;
  std::getline(stream, header);
  std::getline(stream, rule);
  std::getline(stream, row);
  EXPECT_NE(header.find("longheader"), std::string::npos);
  EXPECT_NE(rule.find("---"), std::string::npos);
  EXPECT_NE(row.find("wide-cell-content"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table table({"h1", "h2"});
  table.row().cell("plain").cell("with,comma");
  table.row().cell("with\"quote").cell("with\nnewline");
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, CsvRoundTripHeader) {
  Table table({"alpha", "beta"});
  table.row().cell("1").cell("2");
  EXPECT_EQ(table.to_csv().substr(0, 10), "alpha,beta");
}

TEST(Table, NumPrecisionControl) {
  Table table({"v"});
  table.row().num(3.14159, 2);
  EXPECT_EQ(table.to_csv(), "v\n3.14\n");
}

TEST(Table, WriteCsvFailsOnBadPath) {
  Table table({"v"});
  EXPECT_THROW(table.write_csv("/nonexistent-dir/file.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace socl::util
