// Telemetry facade: one object bundling the standard event counters, the
// event tracer and the optional per-slot time-series sampler.
//
// A SlottedNetwork holds a borrowed Telemetry* (set_telemetry); every
// instrumentation site in the simulator is guarded by one null check, so
// the un-instrumented configuration costs a single predictable branch
// (bench_obs_overhead measures this at well under the 2% budget). The
// hook methods below both bump the standard counters and forward to the
// tracer, so attaching a Telemetry with no sink still yields counts.
//
// Threading contract: Telemetry is not thread-safe and does not need to
// be. The parallel slot engine never calls hooks from worker threads —
// shards stage their results in per-shard buffers, and the coordinating
// thread invokes every hook during the merge phase, replaying events
// lane by lane in node order whatever the thread count. That is what
// keeps traces and time series byte-identical across thread counts (see
// src/sim/network.cpp, SlottedNetwork::step).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "obs/timeseries.h"
#include "obs/trace.h"

namespace sorn {

// The standard counters every Telemetry keeps. Exported under the
// metrics JSON's "registry.counters" as "sim.<field>", in name order.
struct TelemetryCounters {
  std::uint64_t cells_dropped = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t failures = 0;
  std::uint64_t flows_injected = 0;
  std::uint64_t gray_drops = 0;
  std::uint64_t reconfigures = 0;
  std::uint64_t retransmits = 0;

  // (export name, value) pairs, sorted by name.
  std::array<std::pair<std::string_view, std::uint64_t>, 7> named() const {
    return {{{"sim.cells_dropped", cells_dropped},
             {"sim.ecn_marks", ecn_marks},
             {"sim.failures", failures},
             {"sim.flows_injected", flows_injected},
             {"sim.gray_drops", gray_drops},
             {"sim.reconfigures", reconfigures},
             {"sim.retransmits", retransmits}}};
  }
};

struct TelemetryOptions {
  // 0 disables time-series sampling; k >= 1 records every k-th slot.
  Slot sample_every = 0;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {}) {
    if (options.sample_every >= 1) sampler_.emplace(options.sample_every);
  }

  const TelemetryCounters& counters() const { return counters_; }

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  void set_trace_sink(TraceSink* sink) { tracer_.set_sink(sink); }

  TimeSeriesSampler* timeseries() {
    return sampler_ ? &*sampler_ : nullptr;
  }
  const TimeSeriesSampler* timeseries() const {
    return sampler_ ? &*sampler_ : nullptr;
  }

  // ---- Hooks called by the simulator ----
  // True when this slot should be sampled; the caller only then gathers
  // the (possibly expensive) gauges and calls sample().
  bool sample_due(Slot slot) const {
    return sampler_ && sampler_->due(slot);
  }
  void sample(Slot slot, std::uint64_t injected_total,
              std::uint64_t delivered_total, std::uint64_t dropped_total,
              std::uint64_t forwarded_total, std::uint64_t queued_cells,
              std::uint64_t max_voq_depth, std::uint64_t open_flows) {
    sampler_->record(slot, injected_total, delivered_total, dropped_total,
                     forwarded_total, queued_cells, max_voq_depth, open_flows);
  }

  void on_flow_inject(Slot slot, std::uint64_t flow, NodeId src, NodeId dst,
                      std::uint64_t bytes, int flow_class) {
    ++counters_.flows_injected;
    tracer_.flow_inject(slot, flow, src, dst, bytes, flow_class);
  }
  void on_cell_drop(Slot slot, NodeId at, NodeId next_hop,
                    std::uint64_t flow) {
    ++counters_.cells_dropped;
    tracer_.cell_drop(slot, at, next_hop, flow);
  }
  void on_reconfigure(Slot slot) {
    ++counters_.reconfigures;
    tracer_.reconfigure(slot);
  }
  void on_node_fail(Slot slot, NodeId node) {
    ++counters_.failures;
    tracer_.node_fail(slot, node);
  }
  void on_node_heal(Slot slot, NodeId node) { tracer_.node_heal(slot, node); }
  void on_circuit_fail(Slot slot, NodeId src, NodeId dst) {
    ++counters_.failures;
    tracer_.circuit_fail(slot, src, dst);
  }
  void on_circuit_heal(Slot slot, NodeId src, NodeId dst) {
    tracer_.circuit_heal(slot, src, dst);
  }
  // A circuit entered (or changed) a gray-degraded state: lossy at
  // `loss_p`, and/or serving only a `capacity` fraction of its slots.
  void on_circuit_degrade(Slot slot, NodeId src, NodeId dst, double loss_p,
                          double capacity) {
    ++counters_.failures;
    tracer_.circuit_degrade(slot, src, dst, loss_p, capacity);
  }
  void on_circuit_restore(Slot slot, NodeId src, NodeId dst) {
    tracer_.circuit_restore(slot, src, dst);
  }
  // A cell was lost on a gray (lossy) circuit mid-flight.
  void on_gray_drop(Slot slot, NodeId at, NodeId next_hop,
                    std::uint64_t flow) {
    ++counters_.cells_dropped;
    ++counters_.gray_drops;
    tracer_.gray_drop(slot, at, next_hop, flow);
  }
  // One stall-detector firing: `cells` undelivered cells of `flow` were
  // re-admitted on backoff round `attempt`.
  void on_retransmit(Slot slot, std::uint64_t flow, std::uint64_t cells,
                     std::uint32_t attempt) {
    ++counters_.retransmits;
    tracer_.retransmit(slot, flow, cells, attempt);
  }
  // A cell was ECN-marked at enqueue. Counter only — marking is per-cell
  // and would swamp the event trace.
  void on_ecn_mark() { ++counters_.ecn_marks; }

 private:
  TelemetryCounters counters_;
  Tracer tracer_;
  std::optional<TimeSeriesSampler> sampler_;
};

}  // namespace sorn
