#include "sim/network.h"

#include <gtest/gtest.h>

#include "routing/vlb.h"
#include "topo/schedule_builder.h"

namespace sorn {
namespace {

// Test-only router that always routes directly (single hop).
class DirectRouter : public Router {
 public:
  Path route(NodeId src, NodeId dst, Slot, Rng&) const override {
    return Path::of({src, dst});
  }
  int max_hops() const override { return 1; }
};

NetworkConfig fast_config() {
  NetworkConfig c;
  c.lanes = 1;
  c.slot_duration = 100 * 1000;   // 100 ns
  c.propagation_per_hop = 0;      // keep slot arithmetic exact
  return c;
}

TEST(NetworkTest, SingleCellDirectDelivery) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  net.inject_cell(0, 1);  // circuit 0->1 is up at slot 0
  net.step();
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
  EXPECT_EQ(net.cells_in_flight(), 0u);
  // Delivered at end of slot 0: one slot of latency, no propagation.
  EXPECT_DOUBLE_EQ(net.metrics().cell_latency_ps().percentile(50.0),
                   100e3);
}

TEST(NetworkTest, CellWaitsForItsCircuit) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  // Circuit 0->3 is up at slot 2 (shift k = 3).
  net.inject_cell(0, 3);
  net.step();
  net.step();
  EXPECT_EQ(net.metrics().delivered_cells(), 0u);
  net.step();
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

TEST(NetworkTest, TwoHopRelayDelivery) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const VlbRouter router(&s, LbMode::kFirstAvailable);
  SlottedNetwork net(&s, &router, fast_config());
  net.inject_cell(0, 2);
  net.run(10);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
  EXPECT_LE(net.metrics().mean_hops(), 2.0);
}

TEST(NetworkTest, ConservationOfCells) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kRandom);
  SlottedNetwork net(&s, &router, fast_config());
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(8));
    auto dst = static_cast<NodeId>(rng.next_below(8));
    if (dst == src) dst = (dst + 1) % 8;
    net.inject_cell(src, dst);
  }
  net.run(5);
  EXPECT_EQ(net.metrics().injected_cells(),
            net.metrics().delivered_cells() + net.cells_in_flight());
  net.run(200);
  EXPECT_EQ(net.metrics().delivered_cells(), 200u);
  EXPECT_EQ(net.cells_in_flight(), 0u);
}

TEST(NetworkTest, FlowInjectionSplitsIntoCells) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  NetworkConfig c = fast_config();
  c.cell_bytes = 100;
  SlottedNetwork net(&s, &router, c);
  net.inject_flow(7, 0, 1, 950);  // ceil(950/100) = 10 cells
  EXPECT_EQ(net.metrics().injected_cells(), 10u);
  net.run(40);
  EXPECT_EQ(net.metrics().delivered_cells(), 10u);
  EXPECT_EQ(net.metrics().completed_flows(), 1u);
  EXPECT_GT(net.metrics().fct_ps().count(), 0u);
}

TEST(NetworkTest, LanesAccelerateDelivery) {
  // With u lanes a node sweeps its circuits u times faster: draining a
  // burst of direct cells to every destination takes ~period/lanes slots.
  const CircuitSchedule s1 = ScheduleBuilder::round_robin(16);
  const DirectRouter router;
  NetworkConfig one_lane = fast_config();
  NetworkConfig four_lanes = fast_config();
  four_lanes.lanes = 4;
  SlottedNetwork slow(&s1, &router, one_lane);
  SlottedNetwork fast(&s1, &router, four_lanes);
  for (NodeId dst = 1; dst < 16; ++dst) {
    slow.inject_cell(0, dst);
    fast.inject_cell(0, dst);
  }
  slow.run(5);
  fast.run(5);
  EXPECT_GT(fast.metrics().delivered_cells(),
            slow.metrics().delivered_cells());
  fast.run(5);
  EXPECT_EQ(fast.metrics().delivered_cells(), 15u);
}

TEST(NetworkTest, PropagationDelaysRelayAvailability) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const VlbRouter router(&s, LbMode::kFirstAvailable);
  NetworkConfig with_prop = fast_config();
  with_prop.propagation_per_hop = 500 * 1000;  // 5 slots
  SlottedNetwork net(&s, &router, with_prop);
  net.inject_cell(0, 2);
  net.run(3);
  // The relay cannot have forwarded it yet: it only became ready at +6.
  EXPECT_EQ(net.metrics().delivered_cells(), 0u);
  net.run(20);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

TEST(NetworkTest, ReconfigureSwapsScheduleMidRun) {
  const CircuitSchedule rr = ScheduleBuilder::round_robin(8);
  const auto cliques = CliqueAssignment::contiguous(8, 2);
  const CircuitSchedule sorn_sched = ScheduleBuilder::sorn(cliques, {3, 1});
  const VlbRouter vlb(&rr, LbMode::kRandom);
  SlottedNetwork net(&rr, &vlb, fast_config());
  net.inject_cell(0, 5);
  net.run(2);
  net.reconfigure(&sorn_sched, &vlb);
  net.run(40);
  // The in-flight cell still completes: the SORN schedule reaches all
  // pairs within its period.
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

TEST(NetworkTest, ResetMetricsKeepsQueuedCells) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const DirectRouter router;
  SlottedNetwork net(&s, &router, fast_config());
  net.inject_cell(0, 3);
  net.reset_metrics();
  EXPECT_EQ(net.metrics().injected_cells(), 0u);
  EXPECT_EQ(net.cells_in_flight(), 1u);
  net.run(5);
  EXPECT_EQ(net.metrics().delivered_cells(), 1u);
}

TEST(NetworkTest, NullScheduleFailsTheAssertInsteadOfCrashing) {
  // The node count is read from the schedule in the member-initializer
  // list; the null check must run before that first dereference.
  const DirectRouter router;
  EXPECT_DEATH(SlottedNetwork(nullptr, &router, fast_config()),
               "needs a schedule");
}

}  // namespace
}  // namespace sorn
