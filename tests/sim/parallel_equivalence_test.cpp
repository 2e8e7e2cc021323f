// Parallel engine equivalence: for the same seed, the sharded slot engine
// must produce byte-identical artifacts — metrics JSON, per-slot
// time-series CSV, JSONL trace — at any thread count, including thread
// counts that do not divide the node count and exceed the host's cores.
//
// Scenarios deliberately cover the paths where parallel execution could
// diverge from the sequential sweep: multi-hop relaying (deferred pushes),
// bounded queues with tail drops (the merge's sequential-order capacity
// reconstruction), multiple lanes, failures, and a full open-loop
// workload with telemetry attached.
//
// Each scenario's 1-thread artifacts are also pinned by FNV-1a digest.
// The digests were captured from the sequential lane sweep that ran
// 1-thread simulations before the staged sweep became the only engine,
// so the 1-vs-N comparisons keep an absolute reference, not only a
// relative one.
#include <gtest/gtest.h>

#include <ios>
#include <string>
#include <vector>

#include "artifact_digest.h"
#include "core/sorn.h"
#include "fault/fault_injector.h"
#include "obs/export.h"
#include "routing/vlb.h"
#include "sim/workload_driver.h"
#include "topo/schedule_builder.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

constexpr int kThreadCounts[] = {1, 2, 7};

struct Artifacts {
  std::string metrics_json;
  std::string timeseries_csv;
  std::vector<std::string> trace_lines;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t in_flight = 0;
};

// Full pipeline: SORN fabric, open-loop pFabric workload, telemetry with
// trace + time series, exported artifacts.
Artifacts run_workload(int threads) {
  SornConfig cfg;
  cfg.nodes = 32;
  cfg.cliques = 8;
  cfg.locality_x = 0.5;
  cfg.propagation_per_hop = 0;
  const SornNetwork net = SornNetwork::build(cfg);
  SlottedNetwork sim = net.make_network();
  sim.set_threads(threads);

  Telemetry telemetry(TelemetryOptions{.sample_every = 5});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  sim.set_telemetry(&telemetry);

  const TrafficMatrix tm = patterns::locality_mix(net.cliques(), 0.5);
  const FlowSizeDist sizes = FlowSizeDist::pfabric_web_search();
  const double node_bw =
      static_cast<double>(sim.config().cell_bytes) * 8.0 /
      (static_cast<double>(sim.config().slot_duration) * 1e-12);
  FlowArrivals arrivals(&tm, &sizes, node_bw, /*load=*/0.4, Rng(1));
  WorkloadDriver driver(&arrivals);
  driver.run_until(sim, 2500 * sim.config().slot_duration, 2000);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = cfg.nodes;
  out.metrics_json = run_to_json(sim.metrics(), &telemetry, eopts);
  out.timeseries_csv = telemetry.timeseries()->to_csv();
  out.trace_lines = sink.lines();
  out.delivered = sim.metrics().delivered_cells();
  out.dropped = sim.metrics().dropped_cells();
  out.forwarded = sim.metrics().forwarded_cells();
  out.in_flight = sim.cells_in_flight();
  return out;
}

// Bounded queues under sustained overload: relays tail-drop, so the merge
// phase's capacity reconstruction (not just its event replay) is on the
// line. Two lanes shift the schedule per lane.
Artifacts run_capped(int threads) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(16);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.lanes = 2;
  config.propagation_per_hop = 0;
  config.max_queue_cells = 2;
  SlottedNetwork net(&s, &router, config);
  net.set_threads(threads);

  Telemetry telemetry;
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.set_telemetry(&telemetry);

  Rng rng(99);
  for (int round = 0; round < 400; ++round) {
    for (int k = 0; k < 6; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(16));
      auto dst = static_cast<NodeId>(rng.next_below(16));
      if (dst == src) dst = (dst + 1) % 16;
      net.inject_cell(src, dst);
    }
    net.step();
  }
  net.run(64);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = 16;
  eopts.lanes = config.lanes;
  out.metrics_json = run_to_json(net.metrics(), &telemetry, eopts);
  out.trace_lines = sink.lines();
  out.delivered = net.metrics().delivered_cells();
  out.dropped = net.metrics().dropped_cells();
  out.forwarded = net.metrics().forwarded_cells();
  out.in_flight = net.cells_in_flight();
  return out;
}

// Two lanes serving one queue in the same slot: round_robin(4) has period
// 3, so four lanes get phases 0, 0, 1, 2 and lanes 0 and 1 run the same
// matching. A relay's queue can then be popped twice in one slot, and the
// capacity/ECN size of a push in lane l must count back the pops that
// later lanes made of that queue. Tight caps and a threshold of one keep
// both decisions on the line every slot.
Artifacts run_shared_queue(int threads) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.lanes = 4;
  config.propagation_per_hop = 0;
  config.max_queue_cells = 3;
  config.ecn_threshold_cells = 1;
  SlottedNetwork net(&s, &router, config);
  net.set_threads(threads);

  Telemetry telemetry;
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.set_telemetry(&telemetry);

  Rng rng(2024);
  for (int round = 0; round < 500; ++round) {
    for (int k = 0; k < 10; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(4));
      auto dst = static_cast<NodeId>(rng.next_below(4));
      if (dst == src) dst = (dst + 1) % 4;
      net.inject_cell(src, dst);
    }
    net.step();
  }
  net.run(32);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = 4;
  eopts.lanes = config.lanes;
  out.metrics_json = run_to_json(net.metrics(), &telemetry, eopts);
  out.trace_lines = sink.lines();
  out.delivered = net.metrics().delivered_cells();
  out.dropped = net.metrics().dropped_cells();
  out.forwarded = net.metrics().forwarded_cells();
  out.in_flight = net.cells_in_flight();
  return out;
}

// Failure injection mid-run: failed nodes/circuits skip transmits, which
// must shard identically.
Artifacts run_failures(int threads) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(12);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.propagation_per_hop = 0;
  SlottedNetwork net(&s, &router, config);
  net.set_threads(threads);

  Rng rng(7);
  auto pump = [&](int cells) {
    for (int k = 0; k < cells; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(12));
      auto dst = static_cast<NodeId>(rng.next_below(12));
      if (dst == src) dst = (dst + 1) % 12;
      net.inject_cell(src, dst);
    }
  };
  pump(200);
  net.run(10);
  net.fail_node(3);
  net.fail_circuit(1, 5);
  pump(100);
  net.run(30);
  net.heal_node(3);
  net.heal_circuit(1, 5);
  net.run(200);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = 12;
  out.metrics_json = run_to_json(net.metrics(), nullptr, eopts);
  out.delivered = net.metrics().delivered_cells();
  out.dropped = net.metrics().dropped_cells();
  out.forwarded = net.metrics().forwarded_cells();
  out.in_flight = net.cells_in_flight();
  return out;
}

// Table-1-scale sharding: N = 1024 with bounded queues under a drop-heavy
// load and a mid-run schedule/router swap. At this size every thread count
// carves the node range into different shard boundaries than the small-N
// scenarios, and the sparse VOQ layout (lazily materialized queues, erased
// on drain) is hit with ~10^6 distinct (node, next-hop) queues — the merge
// phase's capacity reconstruction must still replay the sequential order
// exactly.
Artifacts run_large_reconfigure(int threads) {
  constexpr NodeId kNodes = 1024;
  const CircuitSchedule rr = ScheduleBuilder::round_robin(kNodes);
  const VlbRouter vlb(&rr, LbMode::kRandom);
  const CircuitSchedule rotor =
      ScheduleBuilder::rotor_random(kNodes, /*dwell_slots=*/1, /*seed=*/77);
  const VlbRouter vlb_rotor(&rotor, LbMode::kRandom);
  NetworkConfig config;
  config.propagation_per_hop = 0;
  config.max_queue_cells = 2;
  SlottedNetwork net(&rr, &vlb, config);
  net.set_threads(threads);

  Telemetry telemetry(TelemetryOptions{.sample_every = 25});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  net.set_telemetry(&telemetry);

  Rng rng(13);
  for (int round = 0; round < 300; ++round) {
    if (round == 150) net.reconfigure(&rotor, &vlb_rotor);
    // 2x the per-slot service rate: queues build toward the cap and
    // tail-drop, with circuits to any given next hop ~1000 slots apart.
    for (int k = 0; k < 2048; ++k) {
      const auto src = static_cast<NodeId>(rng.next_below(kNodes));
      auto dst = static_cast<NodeId>(rng.next_below(kNodes));
      if (dst == src) dst = (dst + 1) % kNodes;
      net.inject_cell(src, dst);
    }
    net.step();
  }
  net.run(400);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = kNodes;
  out.metrics_json = run_to_json(net.metrics(), &telemetry, eopts);
  out.timeseries_csv = telemetry.timeseries()->to_csv();
  out.trace_lines = sink.lines();
  out.delivered = net.metrics().delivered_cells();
  out.dropped = net.metrics().dropped_cells();
  out.forwarded = net.metrics().forwarded_cells();
  out.in_flight = net.cells_in_flight();
  return out;
}

// Stochastic fault injection + failure-aware routing + end-host
// retransmission, the full fault pipeline of this PR. All fault RNG is
// drawn on the coordinating thread (FaultInjector::tick via the driver's
// slot hook), so the artifacts must stay byte-identical at any thread
// count even with faults firing mid-run.
Artifacts run_faulted_workload(int threads) {
  SornConfig cfg;
  cfg.nodes = 32;
  cfg.cliques = 8;
  cfg.locality_x = 0.5;
  cfg.propagation_per_hop = 0;
  SornNetwork net = SornNetwork::build(cfg);
  SlottedNetwork sim = net.make_network();
  sim.set_threads(threads);
  net.set_failure_view(&sim.failure_view());

  Telemetry telemetry(TelemetryOptions{.sample_every = 5});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  sim.set_telemetry(&telemetry);

  FaultInjectorOptions fopts;
  fopts.node_mtbf_slots = 900.0;
  fopts.node_mttr_slots = 300.0;
  fopts.seed = 17;
  FaultInjector injector(FaultScript{}, fopts);

  const TrafficMatrix tm = patterns::locality_mix(net.cliques(), 0.5);
  const FlowSizeDist sizes = FlowSizeDist::pfabric_web_search();
  const double node_bw =
      static_cast<double>(sim.config().cell_bytes) * 8.0 /
      (static_cast<double>(sim.config().slot_duration) * 1e-12);
  FlowArrivals arrivals(&tm, &sizes, node_bw, /*load=*/0.4, Rng(1));
  WorkloadDriver driver(&arrivals);
  driver.set_slot_hook(
      [&injector](SlottedNetwork& n, Slot) { injector.tick(n); });
  WorkloadDriver::RetransmitOptions ropts;
  ropts.timeout_slots = 64;
  driver.set_retransmit(ropts);
  driver.run_until(sim, 2500 * sim.config().slot_duration, 2000);

  EXPECT_GT(injector.faults_applied(), 0u)
      << "the scenario must actually fault (threads=" << threads << ")";

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = cfg.nodes;
  out.metrics_json = run_to_json(sim.metrics(), &telemetry, eopts);
  out.timeseries_csv = telemetry.timeseries()->to_csv();
  out.trace_lines = sink.lines();
  out.delivered = sim.metrics().delivered_cells();
  out.dropped = sim.metrics().dropped_cells();
  out.forwarded = sim.metrics().forwarded_cells();
  out.in_flight = sim.cells_in_flight();
  return out;
}

void expect_identical(const Artifacts& base, const Artifacts& other,
                      int threads) {
  EXPECT_EQ(base.metrics_json, other.metrics_json) << "threads=" << threads;
  EXPECT_EQ(base.timeseries_csv, other.timeseries_csv)
      << "threads=" << threads;
  EXPECT_EQ(base.trace_lines, other.trace_lines) << "threads=" << threads;
  EXPECT_EQ(base.delivered, other.delivered) << "threads=" << threads;
  EXPECT_EQ(base.dropped, other.dropped) << "threads=" << threads;
  EXPECT_EQ(base.forwarded, other.forwarded) << "threads=" << threads;
  EXPECT_EQ(base.in_flight, other.in_flight) << "threads=" << threads;
}

// FNV-1a digests of one scenario's artifacts; kFnvOffset (the digest of
// no bytes) marks an artifact the scenario does not produce.
struct Digests {
  std::uint64_t metrics_json = digest::kFnvOffset;
  std::uint64_t timeseries_csv = digest::kFnvOffset;
  std::uint64_t trace = digest::kFnvOffset;
};

void expect_digests(const Artifacts& a, const Digests& want) {
  EXPECT_EQ(digest::fnv1a(a.metrics_json), want.metrics_json)
      << std::hex << "metrics_json digest 0x"
      << digest::fnv1a(a.metrics_json);
  EXPECT_EQ(digest::fnv1a(a.timeseries_csv), want.timeseries_csv)
      << std::hex << "timeseries_csv digest 0x"
      << digest::fnv1a(a.timeseries_csv);
  EXPECT_EQ(digest::fnv1a_lines(a.trace_lines), want.trace)
      << std::hex << "trace digest 0x" << digest::fnv1a_lines(a.trace_lines);
}

TEST(ParallelEquivalenceTest, WorkloadArtifactsAreByteIdentical) {
  const Artifacts base = run_workload(1);
  expect_digests(base, Digests{.metrics_json = 0xba7dd59ad807d878,
                               .timeseries_csv = 0xf091c471abfd943d,
                               .trace = 0xed13ea1560da1112});
  ASSERT_GT(base.delivered, 0u);
  ASSERT_GT(base.forwarded, 0u);  // relayed cells exercise deferred pushes
  ASSERT_FALSE(base.trace_lines.empty());
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_identical(base, run_workload(threads), threads);
  }
}

TEST(ParallelEquivalenceTest, CappedQueuesDropIdentically) {
  const Artifacts base = run_capped(1);
  expect_digests(base, Digests{.metrics_json = 0xdbb621c6ba9f37b7,
                               .trace = 0x35cac278f8e3a8fb});
  ASSERT_GT(base.dropped, 0u) << "scenario must exercise tail drops";
  ASSERT_GT(base.forwarded, 0u);
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_identical(base, run_capped(threads), threads);
  }
}

// The digests were captured from the per-lane engine (one pool batch and
// one merge per lane), whose interleaved order the one-batch-per-slot
// sweep reconstructs.
TEST(ParallelEquivalenceTest, TwoLanesServingOneQueueSizeLikeTheLaneOrder) {
  const Artifacts base = run_shared_queue(1);
  expect_digests(base, Digests{.metrics_json = 0x9e2d1473578661fa,
                               .trace = 0x5202a1c737199e51});
  ASSERT_GT(base.dropped, 0u) << "scenario must exercise tail drops";
  ASSERT_GT(base.forwarded, 0u);
  for (const int threads : {2, 3})
    expect_identical(base, run_shared_queue(threads), threads);
}

// Acceptance criterion of the fault-injection PR: stochastic faults plus
// retransmission, byte-identical at 1 vs 4 threads (and a non-dividing
// count for good measure).
TEST(ParallelEquivalenceTest, FaultInjectionArtifactsAreByteIdentical) {
  const Artifacts base = run_faulted_workload(1);
  expect_digests(base, Digests{.metrics_json = 0xb0a5b8a9ffe2e11e,
                               .timeseries_csv = 0x0bc87a28a3fadf95,
                               .trace = 0xae354f888c6fccba});
  ASSERT_GT(base.delivered, 0u);
  ASSERT_FALSE(base.trace_lines.empty());
  bool saw_fault_event = false;
  for (const std::string& line : base.trace_lines)
    if (line.find("\"ev\":\"node_fail\"") != std::string::npos)
      saw_fault_event = true;
  EXPECT_TRUE(saw_fault_event) << "faults must appear in the trace";
  for (const int threads : {4, 7})
    expect_identical(base, run_faulted_workload(threads), threads);
}

// Acceptance criterion of the sparse-VOQ PR: large-N artifacts (drops +
// mid-run reconfigure) byte-identical at 1 vs 2 vs 7 threads.
TEST(ParallelEquivalenceTest, LargeNReconfigureArtifactsAreByteIdentical) {
  const Artifacts base = run_large_reconfigure(1);
  expect_digests(base, Digests{.metrics_json = 0xb38b2d1ebbbfc3b7,
                               .timeseries_csv = 0x5444aeaa28b4f842,
                               .trace = 0x5bbddc3f14530a7a});
  ASSERT_GT(base.dropped, 0u) << "scenario must exercise tail drops";
  ASSERT_GT(base.forwarded, 0u);
  ASSERT_GT(base.delivered, 0u);
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_identical(base, run_large_reconfigure(threads), threads);
  }
}

TEST(ParallelEquivalenceTest, FailuresShardIdentically) {
  const Artifacts base = run_failures(1);
  expect_digests(base, Digests{.metrics_json = 0xe679eaff3fd58a15});
  ASSERT_GT(base.delivered, 0u);
  for (const int threads : kThreadCounts) {
    if (threads == 1) continue;
    expect_identical(base, run_failures(threads), threads);
  }
}

TEST(ParallelEquivalenceTest, SwitchingThreadCountsMidRunIsSeamless) {
  // One network, thread count changed between (not within) slots: the
  // trajectory must match an all-1-thread run.
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kRandom);
  NetworkConfig config;
  config.propagation_per_hop = 0;

  auto run = [&](bool reshard) {
    SlottedNetwork net(&s, &router, config);
    Rng rng(5);
    for (int round = 0; round < 120; ++round) {
      if (reshard && round % 30 == 0) net.set_threads(1 + (round / 30) % 4);
      const auto src = static_cast<NodeId>(rng.next_below(8));
      auto dst = static_cast<NodeId>(rng.next_below(8));
      if (dst == src) dst = (dst + 1) % 8;
      net.inject_cell(src, dst);
      net.step();
    }
    net.run(50);
    return net.metrics().delivered_cells();
  };
  const std::uint64_t one_thread = run(false);
  EXPECT_EQ(one_thread, 120u);  // pinned from the sequential lane sweep
  EXPECT_EQ(one_thread, run(true));
}

}  // namespace
}  // namespace sorn
