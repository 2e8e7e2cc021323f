// Simulated counterpart of Table 1's Opera rows: on a slow rotor fabric,
// short flows ride always-up expander paths (latency on the hop scale)
// while bulk flows wait for the direct rotation circuit (latency on the
// rotation scale) — three orders of magnitude apart, exactly the split
// Table 1 reports (2 us vs 23,034 us at full scale).
//
// Scale-down: 64 nodes, 4 lanes, 90 us dwell (900 slots of 100 ns), vs
// the paper's 4096 nodes and 16 uplinks. SORN's single fabric serves the
// same mixed workload without the bulk penalty, at the cost of its
// schedule being oblivious only within the clique structure.
//
// The fabric is the registry's `opera` design run through ScenarioRunner;
// `sorn_tool simulate --design opera` with the same fields replays it.
#include <cstdio>

#include "analysis/models.h"
#include "scenario/scenario_runner.h"
#include "util/table.h"

namespace {

using namespace sorn;

constexpr NodeId kNodes = 64;
constexpr int kLanes = 4;
constexpr Slot kDwell = 900;  // 90 us at 100 ns slots
constexpr std::uint64_t kShortCutoff = 15 * 1000;  // Opera's 15 KB boundary

}  // namespace

int main() {
  std::printf(
      "Opera short/bulk split, simulated (%d nodes, %d lanes, dwell %lld "
      "slots = 90 us)\n\n",
      kNodes, kLanes, static_cast<long long>(kDwell));

  ScenarioConfig cfg;
  cfg.design = "opera";
  cfg.nodes = kNodes;
  cfg.lanes = kLanes;
  cfg.dwell_slots = kDwell;
  cfg.schedule_seed = 17;
  cfg.max_short_hops = 6;
  cfg.propagation_ns = 500;
  cfg.threads = 1;
  // Light open-loop mix: data-mining sizes (mostly tiny flows, heavy
  // tail), classified at Opera's 15 KB boundary; bulk sizes capped so the
  // demo drains in bounded time.
  cfg.traffic = TrafficKind::kUniform;
  cfg.flow_size = FlowSizeKind::kPfabricDataMining;
  cfg.flow_size_cap = 1 << 20;
  cfg.load = 0.5;
  cfg.arrival_seed = 3;
  cfg.classify = ClassifyKind::kSize;
  cfg.bulk_cutoff_bytes = kShortCutoff;
  cfg.slots = 60000;  // 6 ms
  cfg.drain_slots = 400000;
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  if (runner == nullptr || !runner->run(&error)) {
    std::fprintf(stderr, "bench_opera_split: %s\n", error.c_str());
    return 1;
  }

  const auto& short_fct = runner->metrics().fct_ps_class(0);
  const auto& bulk_fct = runner->metrics().fct_ps_class(1);
  TablePrinter table({"class", "flows", "FCT p50 (us)", "FCT p99 (us)"});
  table.add_row({"short (<=15 KB, expander multi-hop)",
                 format("%zu", short_fct.count()),
                 format("%.1f", short_fct.percentile(50.0) / 1e6),
                 format("%.1f", short_fct.percentile(99.0) / 1e6)});
  table.add_row({"bulk (direct rotation circuit)",
                 format("%zu", bulk_fct.count()),
                 format("%.1f", bulk_fct.percentile(50.0) / 1e6),
                 format("%.1f", bulk_fct.percentile(99.0) / 1e6)});
  table.print();

  const double rotation_us =
      static_cast<double>(kNodes - 1) / kLanes * to_us(kDwell * 100000LL);
  std::printf(
      "\nShape check (Table 1, Opera rows): short flows complete on the\n"
      "hop scale; bulk waits the rotation (full sweep here: %.0f us; at\n"
      "paper scale 4095/16 x 90 us = 23,034 us). SORN serves both classes\n"
      "from one schedule with delta_m(intra) = %.0f circuits.\n",
      rotation_us,
      analysis::sorn_delta_m_intra(kNodes, 8, analysis::sorn_optimal_q(0.56)));
  return 0;
}
