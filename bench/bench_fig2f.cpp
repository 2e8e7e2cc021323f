// Regenerates Fig. 2(f): worst-case throughput of the semi-oblivious design
// vs traffic locality ratio x.
//
// Two series, as in the paper:
//   theory — r(x) = 1/(3 - x), the closed form with q = q*(x);
//   sim    — saturation throughput measured on a 128-node, 8-clique SORN
//            (the paper's simulation scale), traffic drawn from a locality
//            mix whose flow population follows the pFabric web-search
//            workload [2] (cells are sprayed per flow; see DESIGN.md).
// Each measurement point is one ScenarioConfig driven through the
// ScenarioRunner, so this bench exercises the exact code path of
// `sorn_tool simulate --design sorn`.
// With `--json <file>` the table is additionally written as the report's
// "rows" (bench/bench_report.h).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/models.h"
#include "bench_report.h"
#include "scenario/scenario_runner.h"
#include "sim/parallel.h"
#include "topo/schedule_builder.h"
#include "traffic/flow_size.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace sorn;

// One saturation measurement through the scenario layer; exits on a
// config/build error (a bug in the bench, not a runtime condition).
double measure_scenario(const ScenarioConfig& cfg) {
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  if (runner == nullptr || !runner->run(&error)) {
    std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
    std::exit(1);
  }
  return runner->saturation_r();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sorn;
  bench::ArgParser args(argc, argv);
  bench::BenchReport report("bench_fig2f", args);
  const int threads = static_cast<int>(
      args.get_long("--threads", ThreadPool::default_threads(), 1));
  args.finish();
  const NodeId kNodes = 128;
  const CliqueId kCliques = 8;

  std::printf(
      "Fig. 2(f): worst-case throughput vs locality ratio "
      "(%d nodes, %d cliques, q = q*(x), %d engine threads)\n\n",
      kNodes, kCliques, threads);

  const FlowSizeDist sizes = FlowSizeDist::pfabric_web_search();
  std::printf("flow sizes: %s (mean %.1f KB)\n\n", sizes.name().c_str(),
              sizes.mean_bytes() / 1e3);

  constexpr int kSeeds = 3;
  TablePrinter table({"x", "q*", "r theory", "r sim (cells)", "stddev",
                      "r sim (pfabric flows)", "sim/theory"});
  for (int step = 0; step <= 10; ++step) {
    const double x = step / 10.0;
    const double r_theory = analysis::sorn_throughput(x);
    const double q_star = analysis::sorn_optimal_q(x, 64.0);
    const Rational q = Rational::approximate(q_star, 8);

    ScenarioConfig cfg;
    cfg.design = "sorn";
    cfg.nodes = kNodes;
    cfg.cliques = kCliques;
    cfg.locality_x = x;
    cfg.q_num = q.num;
    cfg.q_den = q.den;
    cfg.propagation_ns = 0;  // throughput is propagation-independent
    cfg.threads = threads;
    cfg.workload = WorkloadKind::kSaturation;
    cfg.warmup_slots = 4000;
    cfg.measure_slots = 8000;

    RunningStats r_sim;
    for (int seed = 0; seed < kSeeds; ++seed) {
      ScenarioConfig run = cfg;
      run.seed = 42 + static_cast<std::uint64_t>(seed);
      run.workload_seed = 7 + static_cast<std::uint64_t>(seed);
      r_sim.add(measure_scenario(run));
    }

    // Flow-granular variant: sizes from the pFabric CDF; bursty per-pair
    // demand, the matrix only in aggregate.
    ScenarioConfig flow_cfg = cfg;
    flow_cfg.seed = 4242;
    flow_cfg.workload = WorkloadKind::kFlowSaturation;
    flow_cfg.warmup_slots = 5000;
    flow_cfg.measure_slots = 10000;
    const double r_flows = measure_scenario(flow_cfg);

    table.add_row({format("%.1f", x), format("%.2f", q.value()),
                   format("%.4f", r_theory), format("%.4f", r_sim.mean()),
                   format("%.4f", r_sim.stddev()), format("%.4f", r_flows),
                   format("%.3f", r_sim.mean() / r_theory)});
  }
  table.print();
  std::printf(
      "\nShape check: r rises from ~1/3 at x=0 to ~1/2 at x=1 "
      "(paper Sec. 4: \"r is bounded between 1/3 and 1/2\").\n");
  report.rows(table);
  return report.finish();
}
