// One report per bench run: the --json document and the PASS/FAIL gates.
//
// Every bench that ci/check_bench.py compares emits the same layout:
//
//   {"bench": "<name>", <config echo...>,
//    "metrics": {<name>: <number>, ...}, "rows": [{<header>: <cell>}, ...]}
//
// Top-level scalars are the config echo: *inputs only*, because compare
// requires every one of them to match the baseline exactly. Anything
// measured goes under "metrics" (flat numbers; pass flags as 0/1, never
// JSON bools), where compare applies a per-metric tolerance. "rows" is the
// bench's printed table, cells kept as the strings that were printed.
//
// Usage:
//   ArgParser args(argc, argv);
//   BenchReport report("bench_x", args);       // consumes --json
//   ...; args.finish();
//   report.config("nodes", nodes);
//   report.metric("delivered_cells", delivered);
//   report.metric("hold_over_floor", ratio, 4);  // rounded like "%.4f"
//   report.rows(table);
//   report.gate("equivalence", equivalent, "1-vs-4-thread artifacts");
//   return report.finish();  // 1 if a gate failed or the write failed
//
// Header-only; the consumers are leaf executables.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "util/args.h"
#include "util/table.h"

namespace sorn::bench {

using ::sorn::ArgParser;

class BenchReport {
 public:
  BenchReport(std::string bench, ArgParser& args)
      : bench_(std::move(bench)), json_path_(args.get_string("--json", "")) {}

  // Config echo (a top-level scalar): inputs only, never a measured value.
  template <typename T>
  void config(std::string key, T value) {
    config_.emplace_back(std::move(key), scalar(value));
  }

  // A flat numeric metric; a bool becomes 0/1.
  template <typename T>
    requires std::is_arithmetic_v<T>
  void metric(std::string name, T value) {
    metrics_.emplace_back(std::move(name), scalar(value));
  }

  // A metric rounded to `decimals` places, the value a "%.*f" print of it
  // parses back to.
  void metric(std::string name, double value, int decimals) {
    metric(std::move(name),
           std::strtod(format("%.*f", decimals, value).c_str(), nullptr));
  }

  // The printed table, copied as it is now.
  void rows(const TablePrinter& table) { table_ = table; }

  // Records and prints one gate: "<name>: <detail> — PASS|FAIL".
  void gate(const std::string& name, bool pass, const std::string& detail) {
    std::printf("%s: %s — %s\n", name.c_str(), detail.c_str(),
                pass ? "PASS" : "FAIL");
    if (!pass) gates_failed_ = true;
  }

  // The document as written to --json.
  std::string json() const {
    JsonWriter w;
    w.begin_object().field("bench", bench_);
    for (const auto& [key, value] : config_) write(w.key(key), value);
    w.key("metrics").begin_object();
    for (const auto& [key, value] : metrics_) write(w.key(key), value);
    w.end_object();
    if (table_) {
      w.key("rows").begin_array();
      for (const auto& row : table_->rows()) {
        w.begin_object();
        for (std::size_t c = 0; c < row.size(); ++c)
          w.field(table_->headers()[c], row[c]);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
    return w.take() + "\n";
  }

  // Writes the document (also when a gate failed). 1 if the write failed
  // or any gate failed, else 0. The write, not just the open, is checked,
  // so a full disk fails the run instead of leaving a truncated baseline.
  int finish() const {
    bool ok = !gates_failed_;
    if (!json_path_.empty()) {
      if (write_text_file(json_path_, json())) {
        std::printf("wrote %s\n", json_path_.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
        ok = false;
      }
    }
    return ok ? 0 : 1;
  }

 private:
  using Scalar = std::variant<std::int64_t, double, std::string>;

  template <typename T>
  static Scalar scalar(T value) {
    if constexpr (std::is_floating_point_v<T>) {
      return static_cast<double>(value);
    } else if constexpr (std::is_arithmetic_v<T>) {
      return static_cast<std::int64_t>(value);
    } else {
      return std::string(value);
    }
  }

  static void write(JsonWriter& w, const Scalar& value) {
    std::visit([&w](const auto& v) { w.value(v); }, value);
  }

  std::string bench_;
  std::string json_path_;
  std::vector<std::pair<std::string, Scalar>> config_;
  std::vector<std::pair<std::string, Scalar>> metrics_;
  std::optional<TablePrinter> table_;
  bool gates_failed_ = false;
};

}  // namespace sorn::bench
