// Table-1 scale (N = 4096): sparse-VOQ memory ceiling + engine throughput.
//
// The dense N x N VOQ layout made this scale unreachable: ~16.7M deques
// (gigabytes of empty-queue overhead) before the first cell moved. With
// sparse per-node storage the whole 4096-node, 16-lane flow scenario has
// to fit under a hard RSS ceiling, so this bench doubles as the memory
// regression gate: it runs the scenario at each thread count, reports
// peak RSS (getrusage ru_maxrss — a process-wide high-water mark) and
// wall-clock slots/sec, and byte-compares the metrics JSON across thread
// counts (the parallel engine's equivalence contract at full scale).
//
//   bench_large_n [--json out.json] [--nodes 4096] [--cliques 64]
//                 [--lanes 16] [--slots 400] [--drain 4000] [--load 2.0]
//                 [--flow-bytes 40960] [--threads 1,4]
//                 [--traffic-backend procedural]
//                 [--max-rss-mb 2048] [--min-slots-per-sec 10]
//                 [--profile] [--profile-json profile.json]
//
// --nodes, --cliques, --load, --slots, --traffic-backend and the profile
// flags are the ScenarioConfig field-table flags (same ranges and values
// as `sorn_tool simulate`).
//
// The demand defaults to the procedural backend (O(N) state) — the dense
// matrix would reintroduce the very O(N^2) dominator this bench gates.
// All backends produce byte-identical metrics, so --traffic-backend dense
// only changes the memory column.
//
// With --max-rss-mb / --min-slots-per-sec, exits nonzero when peak RSS
// exceeds the ceiling or the slowest thread count misses the floor (the
// CI gates; 0 disables either). Load is relative to single-lane node
// bandwidth, so 16 lanes leave plenty of headroom at the default 2.0.
// --profile-json is rewritten per thread count; the file left behind is
// the last (most-threaded) run's profile, the one with pool utilization.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "scenario/scenario_runner.h"
#include "util/rusage.h"
#include "util/table.h"

namespace {

using namespace sorn;

struct Row {
  int threads = 1;
  double seconds = 0.0;
  double slots_per_sec = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t completed_flows = 0;
  std::string metrics_json;
};

}  // namespace

int main(int argc, char** argv) {
  bench::ArgParser args(argc, argv);
  bench::BenchReport report("bench_large_n", args);
  // Bench defaults; the field-table flags below override them.
  ScenarioConfig cfg;
  cfg.design = "sorn";
  cfg.nodes = 4096;
  cfg.cliques = 64;
  cfg.locality_x = 0.6;
  cfg.traffic_backend = DemandBackend::kProcedural;
  cfg.propagation_ns = 0;
  cfg.workload = WorkloadKind::kFlows;
  cfg.load = 2.0;
  cfg.slots = 400;
  cfg.flow_size = FlowSizeKind::kFixed;
  apply_scenario_flags(args, &cfg,
                       {"nodes", "cliques", "load", "slots", "traffic_backend",
                        "profile", "profile_json"});
  cfg.lanes = static_cast<int>(args.get_long("--lanes", 16, 1));
  cfg.drain_slots = args.get_long("--drain", 4000, 0);
  cfg.fixed_flow_bytes = static_cast<std::uint64_t>(
      args.get_long("--flow-bytes", 40960, 256));
  const std::vector<int> thread_counts =
      args.get_int_list("--threads", {1, 4}, 1);
  const double max_rss_mb = args.get_double("--max-rss-mb", 0.0, 0.0);
  const double min_slots_per_sec =
      args.get_double("--min-slots-per-sec", 0.0, 0.0);
  args.finish();
  const NodeId nodes = cfg.nodes;
  const CliqueId cliques = cfg.cliques;
  const int lanes = cfg.lanes;
  const Slot slots = cfg.slots;

  std::printf(
      "Large-N scale check: %d nodes, %d cliques, %d lanes, load %.2f, "
      "%lld-slot horizon + %lld drain budget, fixed %llu-byte flows\n\n",
      nodes, cliques, lanes, cfg.load, static_cast<long long>(slots),
      static_cast<long long>(cfg.drain_slots),
      static_cast<unsigned long long>(cfg.fixed_flow_bytes));

  std::vector<Row> rows;
  for (const int t : thread_counts) {
    ScenarioConfig run = cfg;
    run.threads = t;
    std::string error;
    auto runner = ScenarioRunner::create(run, &error);
    if (runner == nullptr) {
      std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
      return 1;
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (!runner->run(&error)) {
      std::fprintf(stderr, "run failed: %s\n", error.c_str());
      return 1;
    }
    const auto t1 = std::chrono::steady_clock::now();

    Row row;
    row.threads = t;
    row.seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    row.slots_per_sec =
        static_cast<double>(runner->metrics().slots_run()) / row.seconds;
    row.delivered = runner->metrics().delivered_cells();
    row.completed_flows = runner->metrics().completed_flows();
    row.metrics_json = runner->metrics_json();
    rows.push_back(row);
  }

  // Full-scale equivalence: every thread count must produce the same
  // metrics document, byte for byte.
  bool equivalent = true;
  for (const Row& row : rows)
    if (row.metrics_json != rows.front().metrics_json) equivalent = false;

  const double rss_mb = peak_rss_mb();
  double slowest = rows.empty() ? 0.0 : rows.front().slots_per_sec;
  for (const Row& row : rows)
    if (row.slots_per_sec < slowest) slowest = row.slots_per_sec;

  TablePrinter table(
      {"threads", "seconds", "slots/sec", "delivered", "flows done"});
  for (const Row& row : rows) {
    table.add_row(
        {format("%d", row.threads), format("%.2f", row.seconds),
         format("%.0f", row.slots_per_sec),
         format("%llu", static_cast<unsigned long long>(row.delivered)),
         format("%llu",
                static_cast<unsigned long long>(row.completed_flows))});
  }
  table.print();
  std::printf("\npeak RSS: %.0f MB (process high-water mark)\n\n", rss_mb);

  // Deterministic sim counts (near-exact tolerance in check_bench.py) plus
  // timing/memory (loose ratio bounds) against BENCH_large_n.json.
  report.config("nodes", nodes);
  report.config("cliques", cliques);
  report.config("lanes", lanes);
  report.config("slots", slots);
  report.metric("peak_rss_mb", rss_mb, 1);
  report.metric("equivalent", equivalent);
  report.metric("delivered_cells", rows.empty() ? 0 : rows.front().delivered);
  report.metric("completed_flows",
                rows.empty() ? 0 : rows.front().completed_flows);
  for (const Row& row : rows)
    report.metric(format("slots_per_sec_t%d", row.threads), row.slots_per_sec,
                  1);
  report.rows(table);

  report.gate("equivalence across thread counts", equivalent,
              "identical metrics JSON");
  if (max_rss_mb > 0.0)
    report.gate("RSS gate", rss_mb <= max_rss_mb,
                format("%.0f MB (ceiling %.0f MB)", rss_mb, max_rss_mb));
  if (min_slots_per_sec > 0.0)
    report.gate("throughput gate", slowest >= min_slots_per_sec,
                format("%.0f slots/sec (floor %.0f)", slowest,
                       min_slots_per_sec));
  return report.finish();
}
