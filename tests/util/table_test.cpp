#include "util/table.h"

#include <gtest/gtest.h>

namespace sorn {
namespace {

TEST(TableTest, CsvRoundTrip) {
  TablePrinter t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"x"});  // short rows pad
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\nx,\n");
}

TEST(FormatTest, FormatsLikePrintf) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(FormatTest, LongStringsDoNotTruncate) {
  const std::string s(500, 'y');
  EXPECT_EQ(format("%s", s.c_str()).size(), 500u);
}

}  // namespace
}  // namespace sorn
