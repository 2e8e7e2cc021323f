#include "bench_report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace sorn::bench {
namespace {

// argv for an ArgParser: the program name plus `words`.
class Argv {
 public:
  explicit Argv(std::vector<std::string> words) : words_(std::move(words)) {
    words_.insert(words_.begin(), "bench_test");
    for (std::string& w : words_) ptrs_.push_back(w.data());
  }
  ArgParser parser() {
    return ArgParser(static_cast<int>(ptrs_.size()), ptrs_.data());
  }

 private:
  std::vector<std::string> words_;
  std::vector<char*> ptrs_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BenchReportTest, DocumentLayoutIsConfigThenMetricsThenRows) {
  Argv argv({});
  ArgParser args = argv.parser();
  BenchReport report("bench_x", args);
  args.finish();
  report.config("nodes", 64);
  report.config("design", "sorn");
  report.metric("delivered_cells", std::uint64_t{123456});
  report.metric("equivalent", true);
  report.metric("hold_over_floor", 0.96083, 4);
  TablePrinter table({"threads", "slots/sec"});
  table.add_row({"1", "267"});
  table.add_row({"4"});  // short rows pad
  report.rows(table);
  EXPECT_EQ(report.json(),
            "{\"bench\":\"bench_x\",\"nodes\":64,\"design\":\"sorn\","
            "\"metrics\":{\"delivered_cells\":123456,\"equivalent\":1,"
            "\"hold_over_floor\":0.96079999999999999},"
            "\"rows\":[{\"threads\":\"1\",\"slots/sec\":\"267\"},"
            "{\"threads\":\"4\",\"slots/sec\":\"\"}]}\n");
}

TEST(BenchReportTest, EmptyMetricsAndEmptyTableKeepTheLayout) {
  Argv argv({});
  ArgParser args = argv.parser();
  BenchReport report("bench_x", args);
  EXPECT_EQ(report.json(), "{\"bench\":\"bench_x\",\"metrics\":{}}\n");
  const TablePrinter empty({"h"});
  report.rows(empty);
  EXPECT_EQ(report.json(),
            "{\"bench\":\"bench_x\",\"metrics\":{},\"rows\":[]}\n");
}

TEST(BenchReportTest, StringsAreEscaped) {
  Argv argv({});
  ArgParser args = argv.parser();
  BenchReport report("bench_x", args);
  report.config("replay", "bench_chaos --note \"a\\b\"");
  TablePrinter table({"a\"b"});
  table.add_row({"x\\y"});
  report.rows(table);
  EXPECT_EQ(report.json(),
            "{\"bench\":\"bench_x\","
            "\"replay\":\"bench_chaos --note \\\"a\\\\b\\\"\","
            "\"metrics\":{},\"rows\":[{\"a\\\"b\":\"x\\\\y\"}]}\n");
}

TEST(BenchReportTest, PassingGatesReturnZeroAndWriteTheDocument) {
  const std::string path = ::testing::TempDir() + "bench_report_pass.json";
  Argv argv({"--json", path});
  ArgParser args = argv.parser();
  BenchReport report("bench_x", args);
  args.finish();
  report.metric("equivalent", true);
  report.gate("equivalence", true, "identical");
  EXPECT_EQ(report.finish(), 0);
  EXPECT_EQ(read_file(path), report.json());
}

TEST(BenchReportTest, FailingGateReturnsOneWithTheJsonStillWritten) {
  const std::string path = ::testing::TempDir() + "bench_report_fail.json";
  Argv argv({"--json", path});
  ArgParser args = argv.parser();
  BenchReport report("bench_x", args);
  args.finish();
  report.metric("all_passed", false);
  report.gate("first", true, "holds");
  report.gate("second", false, "broken");
  EXPECT_EQ(report.finish(), 1);
  EXPECT_EQ(read_file(path), report.json());
}

TEST(BenchReportTest, UnwritableJsonPathReturnsOne) {
  Argv argv({"--json", "/nonexistent-dir/bench_report.json"});
  ArgParser args = argv.parser();
  BenchReport report("bench_x", args);
  args.finish();
  report.gate("equivalence", true, "identical");
  EXPECT_EQ(report.finish(), 1);
}

}  // namespace
}  // namespace sorn::bench
