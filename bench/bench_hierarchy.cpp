// Two-level hierarchical SORN (Sec. 6 extension): sweep the locality split
// (x1 = pod, x2 = cluster, x3 = rest) and compare against flat SORN built
// at pod granularity.
//
// The tradeoff the paper sketches: the extra hierarchy level costs some
// throughput on cluster-crossing traffic (a 4th hop: mean hops
// 2 + x2 + 2*x3 vs the flat 3 - x1) but buys intrinsic latency — waits are
// split across a pod-level and a cluster-level round robin instead of one
// robin over all pods — and shrinks synchronization domains (Sec. 6).
//
// Each sweep point is the registry's `hier` design, saturated with
// hier-locality traffic through ScenarioRunner.
#include <cstdio>

#include "analysis/models.h"
#include "scenario/scenario_runner.h"
#include "topo/hierarchy.h"
#include "util/table.h"

namespace {

using namespace sorn;

constexpr NodeId kNodes = 64;

}  // namespace

int main() {
  const Hierarchy h = Hierarchy::regular(kNodes, 4, 4);
  std::printf(
      "Hierarchical SORN: %d nodes = %d clusters x %d pods x %d "
      "(theory r = 1/(2 + x2 + 2*x3))\n\n",
      kNodes, h.cluster_count(), h.pods_per_cluster(), h.pod_size());

  TablePrinter table({"x1 (pod)", "x2 (cluster)", "r theory", "r simulated",
                      "flat-SORN r", "dm pod", "dm cluster", "dm global"});
  const double grid[][2] = {{0.7, 0.2}, {0.5, 0.3}, {0.4, 0.4},
                            {0.3, 0.3}, {0.2, 0.2}};
  for (const auto& [x1, x2] : grid) {
    const auto shares = analysis::hier_optimal_shares(x1, x2);
    ScenarioConfig cfg;
    cfg.design = "hier";
    cfg.nodes = kNodes;
    cfg.clusters = h.cluster_count();
    cfg.pods_per_cluster = h.pods_per_cluster();
    cfg.pod_locality_x1 = x1;
    cfg.cluster_locality_x2 = x2;
    cfg.traffic = TrafficKind::kHierLocality;
    cfg.workload = WorkloadKind::kSaturation;
    cfg.warmup_slots = 5000;
    cfg.measure_slots = 8000;
    cfg.threads = 1;
    std::string error;
    auto runner = ScenarioRunner::create(cfg, &error);
    if (runner == nullptr || !runner->run(&error)) {
      std::fprintf(stderr, "bench_hierarchy: %s\n", error.c_str());
      return 1;
    }
    const double r_sim = runner->saturation_r();

    table.add_row(
        {format("%.1f", x1), format("%.1f", x2),
         format("%.4f", analysis::hier_throughput(x1, x2)),
         format("%.4f", r_sim),
         format("%.4f", analysis::sorn_throughput(x1)),
         format("%.0f", analysis::hier_delta_m_pod(h.pod_size(), shares)),
         format("%.0f", analysis::hier_delta_m_cluster(
                            h.pod_size(), h.pods_per_cluster(), shares)),
         format("%.0f", analysis::hier_delta_m_global(
                            h.pod_size(), h.pods_per_cluster(),
                            h.cluster_count(), shares))});
  }
  table.print();

  // Latency comparison against flat SORN at pod granularity, Table 1
  // deployment parameters (N = 4096, 16 pods of 16 per cluster).
  std::printf(
      "\nIntrinsic latency at N=4096 (16 clusters x 16 pods x 16 nodes, "
      "x1=0.4, x2=0.3):\n");
  const auto big = analysis::hier_optimal_shares(0.4, 0.3);
  const double flat_q = analysis::sorn_optimal_q(0.4);
  TablePrinter lat({"design", "dm local", "dm mid", "dm far"});
  lat.add_row(
      {"flat SORN, 256 pod-cliques",
       format("%.0f", analysis::sorn_delta_m_intra(4096, 256, flat_q)),
       format("%.0f", analysis::sorn_delta_m_inter_table(4096, 256, flat_q)),
       "-"});
  lat.add_row({"hierarchical SORN",
               format("%.0f", analysis::hier_delta_m_pod(16, big)),
               format("%.0f", analysis::hier_delta_m_cluster(16, 16, big)),
               format("%.0f", analysis::hier_delta_m_global(16, 16, 16, big))});
  lat.print();
  std::printf(
      "\nShape check: the hierarchy splits one 255-pod robin into a 15-pod\n"
      "and a 15-cluster robin — far traffic waits two short robins instead\n"
      "of one long one, at a modest throughput cost vs flat pod-SORN.\n");
  return 0;
}
