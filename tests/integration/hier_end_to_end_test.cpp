// Hierarchical loop end to end: scrambled two-level demand -> HierOptimizer
// recovers the structure -> hierarchical schedule + router over the
// position space -> simulated throughput matches the closed form.
#include <gtest/gtest.h>

#include "control/hier_optimizer.h"
#include "routing/hier_routing.h"
#include "scenario/scenario_runner.h"
#include "sim/saturation.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

TEST(HierEndToEndTest, PlannedFabricCarriesTheScrambledDemand) {
  const NodeId n = 64;
  const Hierarchy truth = Hierarchy::regular(n, 4, 4);
  const double x1 = 0.5;
  const double x2 = 0.3;
  const TrafficMatrix clean = patterns::hier_locality_mix(truth, x1, x2);

  // Scramble node identities: the physical demand the planner observes.
  Rng rng(99);
  std::vector<NodeId> scramble(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) scramble[static_cast<std::size_t>(i)] = i;
  rng.shuffle(scramble);
  const TrafficMatrix observed = permute_matrix(clean, scramble);

  // Plan.
  HierOptimizer::Options opts;
  opts.clusters = 4;
  opts.pods_per_cluster = 4;
  const HierOptimizer optimizer(opts);
  const HierPlan plan = optimizer.plan(observed);
  EXPECT_NEAR(plan.x1, x1, 0.06);
  EXPECT_NEAR(plan.x2, x2, 0.08);

  // Build the fabric in position space and drive it with the demand
  // reindexed by the plan's relabeling (each physical node sits at its
  // assigned position).
  const Hierarchy h = plan.hierarchy(n);
  const CircuitSchedule schedule = ScheduleBuilder::sorn_hierarchical(
      h, {plan.shares.intra, plan.shares.inter, plan.shares.global});
  const HierSornRouter router(&schedule, &h, LbMode::kRandom);
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;
  SlottedNetwork net(&schedule, &router, cfg);
  const TrafficMatrix in_position =
      permute_matrix(observed, plan.position_of_node);
  SaturationSource source(&in_position, SaturationConfig{});
  const double r = source.measure(net, 6000, 8000);
  EXPECT_NEAR(r, plan.predicted_throughput, 0.06);
}

TEST(HierEndToEndTest, MisplannedHierarchyLosesThroughput) {
  // Feeding the fabric the raw (scrambled) demand without applying the
  // plan's relabeling destroys the locality and throughput drops.
  const NodeId n = 64;
  const Hierarchy truth = Hierarchy::regular(n, 4, 4);
  const TrafficMatrix clean = patterns::hier_locality_mix(truth, 0.6, 0.25);
  Rng rng(7);
  std::vector<NodeId> scramble(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) scramble[static_cast<std::size_t>(i)] = i;
  rng.shuffle(scramble);
  const TrafficMatrix observed = permute_matrix(clean, scramble);

  const Hierarchy h = Hierarchy::regular(n, 4, 4);
  const auto shares = analysis::hier_optimal_shares(0.6, 0.25);
  const CircuitSchedule schedule = ScheduleBuilder::sorn_hierarchical(
      h, {shares.intra, shares.inter, shares.global});
  const HierSornRouter router(&schedule, &h, LbMode::kRandom);
  NetworkConfig cfg;
  cfg.propagation_per_hop = 0;

  SlottedNetwork planned(&schedule, &router, cfg);
  const HierOptimizer optimizer([] {
    HierOptimizer::Options o;
    o.clusters = 4;
    o.pods_per_cluster = 4;
    return o;
  }());
  const HierPlan plan = optimizer.plan(observed);
  const TrafficMatrix matched =
      permute_matrix(observed, plan.position_of_node);
  SaturationSource match_source(&matched, SaturationConfig{});
  const double r_matched = match_source.measure(planned, 5000, 6000);

  SlottedNetwork unplanned(&schedule, &router, cfg);
  SaturationSource raw_source(&observed, SaturationConfig{});
  const double r_raw = raw_source.measure(unplanned, 5000, 6000);

  EXPECT_GT(r_matched, r_raw + 0.05);
}

TEST(HierSornNetworkTest, SimulationDeliversAllClasses) {
  // The registry's hier fabric, wired by the runner, carries one cell of
  // each hierarchy class: 4 clusters x 4 pods x 4 nodes.
  ScenarioConfig cfg;
  cfg.design = "hier";
  cfg.nodes = 64;
  cfg.clusters = 4;
  cfg.pods_per_cluster = 4;
  cfg.threads = 1;
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  ASSERT_NE(runner, nullptr) << error;
  SlottedNetwork& sim = runner->network();
  sim.inject_cell(0, 2);   // same pod
  sim.inject_cell(0, 9);   // same cluster
  sim.inject_cell(0, 40);  // cross cluster
  sim.run(2000);
  EXPECT_EQ(sim.metrics().delivered_cells(), 3u);
}

}  // namespace
}  // namespace sorn
