// Aligned ASCII table printing for bench harness output.
//
// Every bench binary prints the paper's table/figure rows through this so
// outputs are uniform and diffable.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace sorn {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  // Row cells are pre-formatted strings; shorter rows are padded.
  void add_row(std::vector<std::string> row);

  // Render to the given stream (stdout by default) with a header rule.
  void print(std::FILE* out = stdout) const;

  // Render as CSV (no alignment) for machine consumption.
  std::string to_csv() const;

  // The cells as added (rows padded to the header count); a bench report
  // writes them out as JSON rows keyed by header.
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace sorn
