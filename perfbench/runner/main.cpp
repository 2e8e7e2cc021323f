// sorn_perfbench: one benchmark run of one scenario workload.
//
//   sorn_perfbench --scenario perfbench/workloads/bulk_n1024_t1.json
//                  --seed 1 --seconds 20 [--trace] [--nodes 64]
//
// Untraced part: repeats of create + run until the next repeat would
// overrun --seconds, each preceded by a few creates timed on their own
// (set-up cost). Every repeat is checked: run() succeeds,
// cells are conserved, delivery stays within fabric capacity, and its
// metrics JSON is byte-identical to the first repeat's. With --trace the
// traced run (traced_run.h) follows. Prints one JSON document on stdout;
// perfbench/run.py turns it into the benchmark's result line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "control/control_plane.h"
#include "obs/json.h"
#include "scenario/scenario_runner.h"
#include "traced_run.h"
#include "util/args.h"
#include "util/rusage.h"

namespace {

using perfbench::RunCounts;
using sorn::JsonWriter;
using sorn::ScenarioConfig;
using sorn::ScenarioRunner;

// Untimed-run creates before each timed repeat, for setup_s.
constexpr int kSetupSamplesPerRepeat = 7;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void write_counts(JsonWriter& w, const RunCounts& c) {
  w.key("counts").begin_object();
  w.field("slots", c.slots);
  w.field("flows_injected", c.flows_injected);
  w.field("injected_cells", c.injected_cells);
  w.field("delivered_cells", c.delivered_cells);
  w.field("dropped_cells", c.dropped_cells);
  w.field("completed_flows", c.completed_flows);
  w.field("retransmitted_cells", c.retransmitted_cells);
  w.field("replans", c.replans);
  w.end_object();
}

// Seed-independent output checks of one finished run; empty when it holds.
std::string check_run(const ScenarioConfig& cfg, const ScenarioRunner& runner,
                      const RunCounts& c) {
  const std::uint64_t in_flight = runner.network().cells_in_flight();
  if (c.injected_cells != c.delivered_cells + c.dropped_cells + in_flight)
    return "cell conservation broken";
  const auto capacity = c.slots * static_cast<std::uint64_t>(cfg.nodes) *
                        static_cast<std::uint64_t>(cfg.lanes);
  if (c.delivered_cells > capacity) return "delivered more than capacity";
  if (c.slots > static_cast<std::uint64_t>(cfg.slots + cfg.drain_slots))
    return "ran past the drain budget";
  if (c.completed_flows > c.flows_injected)
    return "completed more flows than injected";
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  sorn::ArgParser args(argc, argv);
  const std::string scenario = args.get_string("--scenario", "");
  const long seed = args.get_long("--seed", 1, 0);
  const double seconds = args.get_double("--seconds", 10.0, 0.0);
  const bool trace = args.get_flag("--trace");
  const long nodes = args.get_long("--nodes", 0, 0, 1 << 20);
  args.finish();
  if (scenario.empty()) {
    std::fprintf(stderr, "sorn_perfbench: --scenario is required\n");
    return 2;
  }

  ScenarioConfig cfg;
  std::string error;
  if (!ScenarioConfig::load_file(scenario, &cfg, &error)) {
    std::fprintf(stderr, "sorn_perfbench: %s\n", error.c_str());
    return 1;
  }
  // The benchmark seed drives every input stream: arrivals, faults and the
  // network's routing spray.
  cfg.arrival_seed = cfg.fault_seed = cfg.seed =
      static_cast<std::uint64_t>(seed);
  if (nodes > 0) {  // small-scale replay for the harness self-test
    cfg.nodes = static_cast<sorn::NodeId>(nodes);
    cfg.cliques = std::min<sorn::CliqueId>(cfg.cliques, 8);
    cfg.incast_fanin = std::min<sorn::NodeId>(cfg.incast_fanin, cfg.nodes / 2);
  }

  JsonWriter w;
  w.begin_object();
  // Every create is a set-up sample; the untimed ones are spread over the
  // run so the median sees the same host conditions as the repeats.
  std::vector<double> setup_s;
  auto create = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<ScenarioRunner> runner = ScenarioRunner::create(cfg, &error);
    setup_s.push_back(seconds_since(t0));
    if (runner == nullptr) {
      std::fprintf(stderr, "sorn_perfbench: %s\n", error.c_str());
      std::exit(1);
    }
    return runner;
  };

  w.key("repeats").begin_array();
  std::string first_json;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSetupSamplesPerRepeat; ++i) create();
    std::unique_ptr<ScenarioRunner> runner = create();
    const auto t1 = std::chrono::steady_clock::now();
    const bool ran = runner->run(&error);
    const double run_s = seconds_since(t1);
    const RunCounts counts = perfbench::counts_of(
        runner->metrics(), runner->flows_injected(),
        runner->control() != nullptr ? runner->control()->replans() : 0);
    std::string problem = ran ? check_run(cfg, *runner, counts) : error;
    const std::string json = runner->metrics_json();
    if (first_json.empty()) first_json = json;
    if (problem.empty() && json != first_json)
      problem = "metrics JSON differs from the first repeat";
    w.begin_object();
    w.field("run_s", run_s);
    w.field("error", problem);
    write_counts(w, counts);
    w.end_object();
    runner.reset();
    const double repeat_s = seconds_since(t0);
    if (seconds_since(start) + repeat_s > seconds) break;
  }
  w.end_array();
  w.key("setup_s").begin_array();
  for (double s : setup_s) w.value(s);
  w.end_array();
  w.field("peak_rss_mb", sorn::peak_rss_mb());

  if (trace) {
    perfbench::TracedResult traced;
    w.key("traced").begin_object();
    if (!perfbench::traced_run(cfg, &traced, &error)) {
      w.field("error", error);
    } else {
      w.field("error", traced.metrics_json == first_json
                           ? std::string()
                           : "traced metrics JSON differs from untraced");
      w.field("run_s", traced.run_s);
      write_counts(w, traced.counts);
      w.key("layers").begin_object();
      for (const auto& [name, value] : traced.layers) w.field(name, value);
      w.end_object();
    }
    w.end_object();
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
