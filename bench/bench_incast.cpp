// Closed-loop transport under incast: DCTCP vs open-loop injection.
//
// The transport PR's acceptance gate: at the same offered load (identical
// incast waves — same fan-in, bytes, period and arrival seed), the
// window-based DCTCP transport reacting to ECN marks must shed VOQ drops
// relative to open-loop injection, which slams every flow's cells into the
// fabric the slot they arrive. The fabric is a 64-node SORN with bounded
// VOQs (--max-queue) and an ECN threshold well below the cap, driven by
// --fanin:1 incast waves (>= 32:1 by default).
//
// Variants:
//
//   open-loop  — cells injected on arrival, drops absorbed by stall
//                retransmission
//   dctcp      — windowed injection, ECN-marked acks shrink cwnd
//
// The dctcp variant also runs at --threads 1 and 4 and byte-compares the
// metrics artifacts: the ECN mark decision reconstructs the node-order
// queue size inside the merge replay, and the ack echo runs on the
// coordinating thread, so the artifacts must be identical. With --json the
// summary is written for ci/check_bench.py against BENCH_incast.json.
#include <cstdio>
#include <string>

#include "bench_report.h"
#include "scenario/scenario_runner.h"
#include "util/table.h"

namespace {

using namespace sorn;

struct VariantResult {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t retransmitted = 0;
  std::uint64_t flows = 0;
  double p99_fct_us = 0.0;
  std::string metrics_json;
  bool ok = false;
  std::string error;
};

VariantResult run_variant(const ScenarioConfig& cfg) {
  VariantResult r;
  auto runner = ScenarioRunner::create(cfg, &r.error);
  if (runner == nullptr) return r;
  if (!runner->run(&r.error)) return r;
  const SimMetrics& m = runner->metrics();
  r.delivered = m.delivered_cells();
  r.dropped = m.dropped_cells();
  r.ecn_marked = m.ecn_marked_cells();
  r.retransmitted = m.retransmitted_cells();
  r.flows = m.completed_flows();
  r.p99_fct_us = m.fct_ps().percentile(99.0) / 1e6;
  r.metrics_json = runner->metrics_json();
  r.ok = true;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sorn;
  bench::ArgParser args(argc, argv);
  bench::BenchReport report("bench_incast", args);
  const auto nodes = static_cast<NodeId>(args.get_long("--nodes", 64, 4));
  const auto cliques = static_cast<CliqueId>(args.get_long("--cliques", 8, 1));
  const int fanin = static_cast<int>(args.get_long("--fanin", 32, 2));
  const auto bytes = static_cast<std::uint64_t>(
      args.get_long("--bytes", 16384, 256));
  const Slot period = args.get_long("--period", 400, 16);
  const Slot slots = args.get_long("--slots", 4000, 500);
  const auto max_queue =
      static_cast<std::uint32_t>(args.get_long("--max-queue", 32, 4));
  const auto ecn =
      static_cast<std::uint32_t>(args.get_long("--ecn-threshold", 8, 1));
  args.finish();
  if (fanin >= static_cast<int>(nodes)) {
    std::fprintf(stderr, "--fanin must be below --nodes\n");
    return 2;
  }

  ScenarioConfig base;
  base.design = "sorn";
  base.nodes = nodes;
  base.cliques = cliques;
  base.propagation_ns = 0;
  base.workload = WorkloadKind::kIncast;
  base.incast_fanin = fanin;
  base.incast_bytes = bytes;
  base.incast_period_slots = period;
  base.slots = slots;
  base.drain_slots = 50000;
  base.max_queue_cells = max_queue;
  base.threads = 1;
  // Drops must be survivable in both variants, or the open-loop run never
  // completes its flows.
  base.retransmit_timeout = 256;
  base.retransmit_max_attempts = 16;

  ScenarioConfig open_cfg = base;  // transport defaults to "open-loop"

  ScenarioConfig dctcp_cfg = base;
  dctcp_cfg.transport = "dctcp";
  dctcp_cfg.ecn_threshold_cells = ecn;
  dctcp_cfg.init_cwnd_cells = 8;
  dctcp_cfg.max_cwnd_cells = 256;
  dctcp_cfg.dctcp_gain = 0.0625;

  const VariantResult open_loop = run_variant(open_cfg);
  const VariantResult dctcp1 = run_variant(dctcp_cfg);
  ScenarioConfig dctcp4_cfg = dctcp_cfg;
  dctcp4_cfg.threads = 4;
  const VariantResult dctcp4 = run_variant(dctcp4_cfg);

  for (const auto* v : {&open_loop, &dctcp1, &dctcp4}) {
    if (!v->ok) {
      std::fprintf(stderr, "variant failed: %s\n", v->error.c_str());
      return 1;
    }
  }

  const bool equivalent = dctcp1.metrics_json == dctcp4.metrics_json;
  const double drop_ratio =
      open_loop.dropped > 0
          ? static_cast<double>(dctcp1.dropped) /
                static_cast<double>(open_loop.dropped)
          : 1.0;

  std::printf(
      "Incast transport comparison: %d nodes, %d cliques, %d:1 fan-in, "
      "%llu B/sender every %lld slots, VOQ cap %u cells, ECN at %u\n\n",
      nodes, cliques, fanin, static_cast<unsigned long long>(bytes),
      static_cast<long long>(period), max_queue, ecn);
  TablePrinter table({"variant", "flows", "delivered", "dropped", "retx",
                      "ECN-marked", "p99 FCT (us)"});
  for (const auto& [name, v] :
       {std::pair<const char*, const VariantResult*>{"open-loop", &open_loop},
        {"dctcp", &dctcp1}}) {
    table.add_row({name, format("%llu", (unsigned long long)v->flows),
                   format("%llu", (unsigned long long)v->delivered),
                   format("%llu", (unsigned long long)v->dropped),
                   format("%llu", (unsigned long long)v->retransmitted),
                   format("%llu", (unsigned long long)v->ecn_marked),
                   format("%.1f", v->p99_fct_us)});
  }
  table.print();
  std::printf("\n");

  report.config("nodes", nodes);
  report.config("cliques", cliques);
  report.config("fanin", fanin);
  report.config("bytes", bytes);
  report.config("period", period);
  report.config("slots", slots);
  report.config("max_queue", max_queue);
  report.config("ecn_threshold", ecn);
  report.metric("openloop_dropped_cells", open_loop.dropped);
  report.metric("dctcp_dropped_cells", dctcp1.dropped);
  report.metric("openloop_delivered_cells", open_loop.delivered);
  report.metric("dctcp_delivered_cells", dctcp1.delivered);
  report.metric("dctcp_ecn_marked_cells", dctcp1.ecn_marked);
  report.metric("dctcp_flows_completed", dctcp1.flows);
  report.metric("equivalent", equivalent);

  report.gate("equivalence", equivalent,
              "dctcp metrics artifact identical at 1 and 4 threads");
  // A run that never overflowed a VOQ measures nothing: raise --fanin or
  // lower --max-queue.
  report.gate("open-loop overflows", open_loop.dropped > 0,
              format("open-loop dropped %llu cells",
                     static_cast<unsigned long long>(open_loop.dropped)));
  report.gate("dctcp sheds drops", dctcp1.dropped < open_loop.dropped,
              format("dctcp drops at %.3fx open-loop at equal offered load",
                     drop_ratio));
  return report.finish();
}
