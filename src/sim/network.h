// The slot-synchronous circuit network simulator.
//
// One step() is one time slot: every node, on each of its uplink lanes,
// looks up the peer its circuit connects to in this slot and transmits the
// head cell of the matching VOQ. Delivered cells are recorded; relayed
// cells become available at the next node after a fixed turnaround
// (1 slot + propagation). This is the htsim-style substrate all ORN papers
// evaluate on (see DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>

#include "obs/prof/profiler.h"
#include "obs/telemetry.h"
#include "routing/failure_view.h"
#include "routing/router.h"
#include "sim/cell.h"
#include "sim/gray_failures.h"
#include "sim/invariants.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/transport_hook.h"
#include "sim/voq.h"
#include "topo/schedule.h"
#include "util/rng.h"
#include "util/time.h"

namespace sorn {

struct NetworkConfig {
  // Parallel uplinks per node; lane l runs the schedule phase-shifted by
  // lane_phase(period, lanes, l).
  int lanes = 1;
  Picoseconds slot_duration = 100 * 1000;      // 100 ns, Table 1
  Picoseconds propagation_per_hop = 500 * 1000;  // 500 ns, Table 1
  std::uint64_t cell_bytes = 256;
  // Per-(node, next-hop) FIFO depth; 0 = unbounded. Overflowing cells are
  // tail-dropped and counted in SimMetrics::dropped_cells (NIC buffers
  // are finite; loss experiments set this).
  std::uint64_t max_queue_cells = 0;
  // ECN-like marking: a cell enqueued into a VOQ already holding at least
  // this many cells is marked (Cell::ecn) and counted in
  // SimMetrics::ecn_marked_cells; the mark is echoed to an attached
  // transport at delivery. 0 disables. The mark decision observes the
  // same node-order queue size the capacity check does, so results stay
  // byte-identical at any thread count.
  std::uint64_t ecn_threshold_cells = 0;
  std::uint64_t seed = 42;
};

class SlottedNetwork {
 public:
  // schedule and router must outlive the network (or be replaced via
  // reconfigure() before destruction of the old ones).
  SlottedNetwork(const CircuitSchedule* schedule, const Router* router,
                 NetworkConfig config);

  NodeId node_count() const { return n_; }
  Slot now() const { return now_; }
  const NetworkConfig& config() const { return config_; }
  const SimMetrics& metrics() const { return metrics_; }
  SimMetrics& metrics() { return metrics_; }
  std::uint64_t cells_in_flight() const { return voqs_.total_queued(); }

  // Inject one flow: bytes are split into cells, each routed independently
  // (per-cell spraying) and enqueued at the source now. flow_class labels
  // the flow for split FCT percentiles (SimMetrics::fct_ps_class).
  void inject_flow(FlowId flow, NodeId src, NodeId dst, std::uint64_t bytes,
                   int flow_class = 0);

  // Same, but routed by `router` instead of the network's default — used
  // by designs that route flow classes differently (Opera: short flows on
  // expander paths, bulk on the direct rotation circuit).
  void inject_flow_with(const Router& router, FlowId flow, NodeId src,
                        NodeId dst, std::uint64_t bytes, int flow_class = 0);

  // Inject a contiguous window segment [first_cell, first_cell +
  // cell_count) of a flow whose full size is `bytes` — the closed-loop
  // transport's release path. The flow record is created with the full
  // totals on the first segment (first_cell == 0), which is also when the
  // flow-inject telemetry/invariant events fire; the flow completes when
  // every cell is delivered, exactly like an atomic injection.
  void inject_flow_segment(const Router& router, FlowId flow, NodeId src,
                           NodeId dst, std::uint64_t bytes,
                           std::uint64_t first_cell, std::uint64_t cell_count,
                           int flow_class = 0);

  // Register the secondary (bulk) router so the network can recognize
  // bulk-class injections and retransmit their stalled cells through the
  // same path class (retransmit_stalled). Callers that split traffic
  // (WorkloadDriver::set_bulk_router) register it before injecting;
  // nullptr disables the split. Borrowed; must outlive the network or be
  // cleared first.
  void set_bulk_router(const Router* bulk) { bulk_router_ = bulk; }
  const Router* bulk_router() const { return bulk_router_; }

  // Inject a single anonymous cell (saturation sources).
  void inject_cell(NodeId src, NodeId dst);

  // Advance one slot.
  void step();
  void run(Slot slots);

  // ---- Slot engine threads ----
  // Shard each slot's node sweep across `threads` threads — the thread
  // calling step() and threads - 1 persistent workers — replacing the
  // current pool (call between slots). A network starts with a 1-thread
  // pool, which runs the sweep on the calling thread with no workers or
  // synchronization. Results —
  // metrics, traces, time-series rows — are byte-identical for the same
  // seed at any thread count: shards stage their transmit outcomes per
  // lane in node order and the merge replays every side effect (metrics,
  // pushes, drops, telemetry) lane by lane in node order (see DESIGN.md,
  // "Parallel slot engine").
  void set_threads(int threads);
  int threads() const { return pool_->thread_count(); }

  // Swap in a new schedule/router (the control plane's epoch-synchronous
  // update, paper Sec. 5). In-flight cells keep their old paths; this is
  // safe because every schedule built in this library keeps the full
  // neighbor superset reachable (all pairs recur within a period).
  void reconfigure(const CircuitSchedule* schedule, const Router* router);

  // ---- Failure injection (paper Sec. 6, blast radius) ----
  // A failed node neither transmits nor receives; a failed circuit
  // disables one directed virtual edge. Cells whose next hop is failed
  // stay queued (outage semantics) and resume after heal_*. Mutators are
  // idempotent — repeated fail/heal of the same entity is a no-op and
  // emits no duplicate telemetry; the return value reports whether the
  // state actually changed.
  bool fail_node(NodeId node);
  bool heal_node(NodeId node);
  bool fail_circuit(NodeId src, NodeId dst);
  bool heal_circuit(NodeId src, NodeId dst);
  // Heal every failed node and circuit (telemetry fires per entity);
  // returns the number of entities healed.
  std::uint64_t heal_all();
  bool is_failed(NodeId node) const {
    return failures_.is_node_failed(node);
  }
  bool is_circuit_failed(NodeId src, NodeId dst) const {
    return failures_.is_circuit_failed(src, dst);
  }
  // The live failure state; routers and the control plane borrow this
  // (Router::set_failure_view, ControlPlane::set_failure_view) to route
  // and plan around outages. Valid for the network's lifetime.
  const FailureView& failure_view() const { return failures_; }

  // ---- Gray (partial) circuit failures (sim/gray_failures.h) ----
  // A degraded circuit stays up but loses each cell with probability
  // loss_p (counted in dropped_cells and gray_dropped_cells; recovered by
  // end-host retransmission); a throttled circuit serves only a
  // `capacity` fraction of its slots (head cells stay queued in inactive
  // slots, like a fail-stop outage). Both decisions are stateless seeded
  // hashes, so results stay byte-identical at any thread count. Mutators
  // are idempotent like fail_*/heal_*.
  bool degrade_circuit(NodeId src, NodeId dst, double loss_p);
  bool throttle_circuit(NodeId src, NodeId dst, double capacity);
  bool restore_circuit(NodeId src, NodeId dst);
  std::uint64_t restore_all_gray();
  const GrayFailureView& gray_view() const { return gray_; }

  // ---- End-host retransmission ----
  // A stalled flow (no delivery progress for timeout_slots * 2^attempts)
  // has its undelivered cells re-admitted at the source, routed by the
  // current router — which, if failure-aware, detours around the outage
  // that stranded the originals. Duplicate copies are discarded at the
  // receiver (Cell::seq), so FCT accounting stays exact. Call between
  // slots from the coordinating thread; returns cells re-admitted.
  struct RetransmitPolicy {
    Slot timeout_slots = 0;  // 0 disables
    std::uint32_t max_attempts = 8;
    // Fractional backoff jitter: each flow's wait for round k is scaled
    // by a deterministic per-(flow, round) factor in
    // [1 - jitter/2, 1 + jitter/2], desynchronizing the retransmit
    // stampede when many flows stall on the same outage and would
    // otherwise all fire into the source VOQs on the same slot. 0 (the
    // default) reproduces the exact pre-jitter timeline. The factor is a
    // stateless hash seeded from the network seed — no draw from the
    // shared Rng, so determinism at any thread count is preserved.
    double jitter_frac = 0.0;
  };
  std::uint64_t retransmit_stalled(const RetransmitPolicy& policy);

  // True while the slot's sweep is running; anything that draws rng_ or
  // mutates shared state (injection, fault ticks) must see false.
  bool in_parallel_sweep() const { return in_parallel_sweep_; }

  // Reset counters but keep queued cells and open-flow records (used to
  // exclude warmup; flows straddling the boundary still complete and are
  // counted, with FCTs measured from their true inject slot).
  void reset_metrics();

  // ---- Telemetry (src/obs) ----
  // Attach a borrowed telemetry facade: events (flow inject/complete,
  // drops, reconfigure, fail/heal) flow to its tracer and counters, and
  // its sampler — when enabled — records the per-slot time series. Pass
  // nullptr to detach. With nothing attached every instrumentation site
  // is one predictable null check (see bench_obs_overhead).
  void set_telemetry(Telemetry* telemetry);
  Telemetry* telemetry() const { return telemetry_; }

  // ---- Profiling (src/obs/prof) ----
  // Attach a borrowed profiler: step() wraps each engine phase in a
  // scoped timer, the pool starts utilization accounting, and
  // the network registers its byte gauges (VOQ storage, stored matchings,
  // flow records, retransmit state, distributions) with the profiler's
  // MemoryAccountant. Profiling only reads clocks and sizes — sim results
  // stay byte-identical with a profiler attached or not. Pass nullptr to
  // detach; detached sites cost one null check (bench_obs_overhead gates
  // this at <= 2%). The profiler must outlive the attachment.
  void set_profiler(Profiler* profiler);
  Profiler* profiler() const { return profiler_; }
  // Copy the pool's utilization counters into the attached profiler
  // (no-op without a profiler). Call at end of run.
  void snapshot_pool_utilization();

  // ---- Invariant checking (sim/invariants.h) ----
  // Attach a borrowed checker: the engine feeds it every transmit,
  // delivery and slot end (always from the coordinating thread) so it can
  // independently verify cell conservation, no-forwarding-through-failed-
  // elements and receiver seq sanity. nullptr detaches; detached sites
  // cost one null check. Attachment captures the conservation baseline
  // from the current counters, so mid-run attach is exact.
  void set_invariant_checker(InvariantChecker* checker);
  InvariantChecker* invariant_checker() const { return checker_; }

  // ---- Closed-loop transport (sim/transport_hook.h) ----
  // Attach a borrowed transport: every first-copy delivery is echoed back
  // through Transport::on_ack, always on the coordinating thread (the
  // sweep's merge replay), so the §6 determinism contract holds with
  // a transport attached. nullptr detaches; detached sites cost one null
  // check.
  void set_transport(Transport* transport) { transport_ = transport; }
  Transport* transport() const { return transport_; }

  // The schedule currently driving the network (reconfigure() may have
  // swapped it since construction).
  const CircuitSchedule* schedule() const { return schedule_; }
  // The router currently routing injections (for safe-mode save/restore).
  const Router* router() const { return router_; }

 private:
  // Staged outcome of one transmit, produced by the sweep's shards and
  // replayed lane by lane in node order by the merge phase. The cell is
  // already advanced (hop incremented, ready_slot set for forwards).
  struct StagedEvent {
    Cell cell;
    bool deliver = false;
    // Lost to a gray (lossy) circuit: the pop happened but the cell is
    // discarded at merge instead of delivered/forwarded.
    bool gray_drop = false;
  };
  struct ShardStage {
    // One list per lane, each in ascending node order.
    std::vector<std::vector<StagedEvent>> lanes;
    std::uint64_t pops = 0;  // settled into VoqSet::total_ at merge
  };

  // Pops of queue (at, next) that the lane-by-lane interleaved sweep
  // makes after `src`'s push into it in lane `lane` (see step()).
  std::uint64_t pops_after_push(NodeId src, NodeId at, NodeId next,
                                int lane) const;
  // Tail-drop accounting + telemetry for a cell that failed to enqueue.
  void drop(const Cell& cell);
  // The one capacity/ECN admission decision, made for every push:
  // injection, retransmission and the merge's forwards. Both the capacity
  // check and the ECN mark judge size_of(target queue) + `unpopped`; the
  // merge passes the pops that the node owning the target queue makes
  // after this push in lane-by-lane node order (see step()).
  void enqueue_or_drop(Cell& cell, std::uint64_t unpopped = 0);
  // Delivery bookkeeping: invariant hook, metrics, and the transport ack
  // echo for first copies.
  void deliver(const Cell& cell);

  const CircuitSchedule* schedule_;
  const Router* router_;
  // Secondary path class for bulk-classified flows; flows injected
  // through it retransmit through it (see retransmit_stalled).
  const Router* bulk_router_ = nullptr;
  NetworkConfig config_;
  NodeId n_;
  Slot now_ = 0;
  VoqSet voqs_;
  SimMetrics metrics_;
  Rng rng_;
  FailureView failures_;
  GrayFailureView gray_;
  Telemetry* telemetry_ = nullptr;
  Profiler* profiler_ = nullptr;
  InvariantChecker* checker_ = nullptr;
  Transport* transport_ = nullptr;

  // Slot engine state. rng_ must never be drawn inside the sweep
  // (injection — the only RNG consumer — happens between slots);
  // in_parallel_sweep_ guards against that ever regressing. pool_ is
  // never null: the constructor installs a 1-thread pool.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<ShardRange> shard_plan_;
  std::vector<ShardStage> stages_;
  // This slot's matching per lane, looked up before the sweep.
  std::vector<const Matching*> lane_matchings_;
  // "Node i popped its VOQ head in lane l this slot" marks at
  // [i * lanes + l], used by the merge to reconstruct the interleaved-
  // order queue size for capacity checks and ECN mark decisions.
  std::vector<std::uint8_t> popped_;
  bool in_parallel_sweep_ = false;
};

}  // namespace sorn
