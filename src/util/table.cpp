#include "util/table.h"

#include <cstdarg>
#include <algorithm>

namespace sorn {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> row) {
  row.resize(headers_.size());
  rows_.push_back(std::move(row));
}

void TablePrinter::print(std::FILE* out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%c %-*s", c == 0 ? '|' : '|',
                   static_cast<int>(widths[c]), row[c].c_str());
      std::fputc(' ', out);
    }
    std::fputs("|\n", out);
  };
  print_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    std::fputc('|', out);
    for (std::size_t i = 0; i < widths[c] + 2; ++i) std::fputc('-', out);
  }
  std::fputs("|\n", out);
  for (const auto& row : rows_) print_row(row);
}

std::string TablePrinter::to_csv() const {
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out += ',';
      out += row[c];
    }
    out += '\n';
  };
  append_row(headers_);
  for (const auto& row : rows_) append_row(row);
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string buf(needed > 0 ? static_cast<std::size_t>(needed) : 0, '\0');
  if (needed > 0) std::vsnprintf(buf.data(), buf.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return buf;
}

}  // namespace sorn
