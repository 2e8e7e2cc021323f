// Thread-count byte-equivalence for the closed-loop transport (satellite
// of the transport PR): DCTCP windows + ECN marking + stall
// retransmission under a gray-failure blast must produce byte-identical
// artifacts at 1, 4 and 7 engine threads. This puts the ECN mark's
// sequential-order queue-size reconstruction (the merge phase's
// popped_/adj bookkeeping) on the line together with the ack echo, which
// must happen on the coordinating thread only.
//
// The 1-thread artifacts are also pinned by FNV-1a digest, captured from
// the sequential lane sweep that ran 1-thread simulations before the
// staged sweep became the only engine.
#include <gtest/gtest.h>

#include <ios>
#include <string>
#include <vector>

#include "artifact_digest.h"
#include "core/sorn.h"
#include "obs/export.h"
#include "sim/workload_driver.h"
#include "traffic/flow_size.h"
#include "traffic/patterns.h"
#include "traffic/workloads.h"
#include "transport/transport.h"

namespace sorn {
namespace {

struct Artifacts {
  std::string metrics_json;
  std::vector<std::string> trace_lines;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t acked = 0;
  std::uint64_t in_flight = 0;
};

// Incast waves through DCTCP on a SORN fabric, with bounded queues, a
// tiny ECN threshold, stall retransmission, and a mid-run gray-failure
// blast (lossy + throttled circuits) that heals before the drain.
Artifacts run_gray_blast(int threads) {
  SornConfig cfg;
  cfg.nodes = 32;
  cfg.cliques = 8;
  cfg.locality_x = 0.5;
  cfg.propagation_per_hop = 0;
  const SornNetwork net = SornNetwork::build(cfg);
  NetworkConfig net_cfg;
  net_cfg.propagation_per_hop = 0;
  net_cfg.max_queue_cells = 24;
  net_cfg.ecn_threshold_cells = 6;
  SlottedNetwork sim(&net.schedule(), &net.router(), net_cfg);
  sim.set_threads(threads);

  Telemetry telemetry(TelemetryOptions{.sample_every = 10});
  MemoryTraceSink sink;
  telemetry.set_trace_sink(&sink);
  sim.set_telemetry(&telemetry);

  DctcpTransport::Options topts;
  topts.congestion.init_cwnd_cells = 8;
  topts.congestion.gain = 0.25;
  DctcpTransport transport(topts);
  sim.set_transport(&transport);

  IncastArrivals arrivals(cfg.nodes, /*fanin=*/12, /*bytes_per_sender=*/8192,
                          /*period_slots=*/200,
                          sim.config().slot_duration, Rng(21));
  WorkloadDriver driver(&arrivals);
  driver.set_transport(&transport);
  driver.set_retransmit({/*timeout_slots=*/128, /*max_attempts=*/8,
                         /*check_every=*/16});
  driver.set_slot_hook([](SlottedNetwork& n, Slot now) {
    if (now == 300) {
      n.degrade_circuit(1, 2, /*loss_p=*/0.5);
      n.degrade_circuit(5, 9, /*loss_p=*/0.25);
      n.throttle_circuit(3, 7, /*capacity=*/0.3);
    }
    if (now == 1500) n.restore_all_gray();
  });
  driver.run_until(sim, 2000 * sim.config().slot_duration, 30000);

  Artifacts out;
  ExportOptions eopts;
  eopts.nodes = cfg.nodes;
  const TransportStats tstats = transport.stats();
  eopts.transport = &tstats;
  out.metrics_json = run_to_json(sim.metrics(), &telemetry, eopts);
  out.trace_lines = sink.lines();
  out.delivered = sim.metrics().delivered_cells();
  out.dropped = sim.metrics().dropped_cells();
  out.ecn_marked = sim.metrics().ecn_marked_cells();
  out.acked = tstats.acked_cells;
  out.in_flight = sim.cells_in_flight();
  return out;
}

TEST(TransportEquivalenceTest, GrayBlastArtifactsAreByteIdentical) {
  const Artifacts base = run_gray_blast(1);
  ASSERT_GT(base.delivered, 0u);
  ASSERT_GT(base.ecn_marked, 0u) << "the blast must actually mark cells";
  ASSERT_GT(base.acked, 0u);
  EXPECT_EQ(digest::fnv1a(base.metrics_json), 0x52c4fa9c2b6c17afULL)
      << std::hex << "metrics_json digest 0x"
      << digest::fnv1a(base.metrics_json);
  EXPECT_EQ(digest::fnv1a_lines(base.trace_lines), 0xff1d23862328374dULL)
      << std::hex << "trace digest 0x"
      << digest::fnv1a_lines(base.trace_lines);
  for (const int threads : {4, 7}) {
    const Artifacts other = run_gray_blast(threads);
    EXPECT_EQ(base.metrics_json, other.metrics_json) << "threads=" << threads;
    EXPECT_EQ(base.trace_lines, other.trace_lines) << "threads=" << threads;
    EXPECT_EQ(base.delivered, other.delivered) << "threads=" << threads;
    EXPECT_EQ(base.dropped, other.dropped) << "threads=" << threads;
    EXPECT_EQ(base.ecn_marked, other.ecn_marked) << "threads=" << threads;
    EXPECT_EQ(base.acked, other.acked) << "threads=" << threads;
    EXPECT_EQ(base.in_flight, other.in_flight) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace sorn
