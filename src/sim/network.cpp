#include "sim/network.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

namespace {

// Runs in the member-initializer list, so the null check comes before the
// first dereference of the schedule.
NodeId checked_node_count(const CircuitSchedule* schedule,
                          const Router* router) {
  SORN_ASSERT(schedule != nullptr && router != nullptr,
              "network needs a schedule and a router");
  return schedule->node_count();
}

}  // namespace

SlottedNetwork::SlottedNetwork(const CircuitSchedule* schedule,
                               const Router* router, NetworkConfig config)
    : schedule_(schedule),
      router_(router),
      config_(config),
      n_(checked_node_count(schedule, router)),
      voqs_(n_),
      metrics_(config.slot_duration, config.propagation_per_hop),
      rng_(config.seed),
      failures_(n_),
      gray_(n_) {
  // Gray-failure decisions hash their own derived seed so enabling them
  // never perturbs the main Rng stream (routing, injection).
  gray_.set_seed(config.seed ^ 0x6772617946617573ULL);
  SORN_ASSERT(config_.lanes >= 1, "need at least one uplink lane");
  SORN_ASSERT(config_.cell_bytes >= 1, "cells must carry at least one byte");
  set_threads(1);
}

void SlottedNetwork::inject_flow(FlowId flow, NodeId src, NodeId dst,
                                 std::uint64_t bytes, int flow_class) {
  inject_flow_with(*router_, flow, src, dst, bytes, flow_class);
}

void SlottedNetwork::inject_flow_with(const Router& router, FlowId flow,
                                      NodeId src, NodeId dst,
                                      std::uint64_t bytes, int flow_class) {
  inject_flow_segment(router, flow, src, dst, bytes, 0,
                      (bytes + config_.cell_bytes - 1) / config_.cell_bytes,
                      flow_class);
}

void SlottedNetwork::inject_flow_segment(const Router& router, FlowId flow,
                                         NodeId src, NodeId dst,
                                         std::uint64_t bytes,
                                         std::uint64_t first_cell,
                                         std::uint64_t cell_count,
                                         int flow_class) {
  SORN_ASSERT(src != dst, "flow endpoints must differ");
  // Routing draws from rng_; a draw inside the lane sweep would make the
  // stream depend on thread scheduling (see DESIGN.md).
  SORN_ASSERT(!in_parallel_sweep_, "inject during parallel sweep");
  const std::uint64_t cells =
      (bytes + config_.cell_bytes - 1) / config_.cell_bytes;
  SORN_ASSERT(first_cell + cell_count <= cells, "segment past end of flow");
  // Remember which path class injected the flow: stalled cells must be
  // retransmitted through the same router (a bulk flow re-routed onto the
  // short-flow path class would jump queues and skew both path classes).
  const bool bulk = bulk_router_ != nullptr && &router == bulk_router_;
  // Flow-level events fire once, with the first segment; the flow record
  // (created by the first on_inject with the full totals) completes when
  // every cell — across all segments — has been delivered.
  if (first_cell == 0) {
    if (telemetry_ != nullptr)
      telemetry_->on_flow_inject(now_, flow, src, dst, bytes, flow_class);
    if (checker_ != nullptr) checker_->on_flow_inject(flow, cells);
  }
  for (std::uint64_t c = 0; c < cell_count; ++c) {
    Cell cell;
    cell.flow = flow;
    cell.seq = static_cast<std::uint32_t>(first_cell + c);
    // Stagger the routing reference slot across the segment's cells: cell
    // c will leave the source no earlier than c/lanes slots from now, and
    // "first available link" load balancing must be evaluated at each
    // cell's own departure opportunity (otherwise a whole flow convoys
    // onto one queue; cf. the paper's footnote on long flows spreading
    // across all intra-clique links).
    cell.path = router.route(
        src, dst, now_ + static_cast<Slot>(c) / config_.lanes, rng_);
    cell.hop = 0;
    cell.inject_slot = now_;
    cell.ready_slot = now_;
    metrics_.on_inject(cell, cells, bytes, flow_class, bulk);
    enqueue_or_drop(cell);
  }
}

void SlottedNetwork::inject_cell(NodeId src, NodeId dst) {
  SORN_ASSERT(src != dst, "cell endpoints must differ");
  SORN_ASSERT(!in_parallel_sweep_, "inject during parallel sweep");
  Cell cell;
  cell.flow = kNoFlow;
  cell.path = router_->route(src, dst, now_, rng_);
  cell.hop = 0;
  cell.inject_slot = now_;
  cell.ready_slot = now_;
  metrics_.on_inject(cell, 1, config_.cell_bytes);
  enqueue_or_drop(cell);
}

void SlottedNetwork::drop(const Cell& cell) {
  metrics_.on_drop();
  if (telemetry_ != nullptr)
    telemetry_->on_cell_drop(now_, cell.current(), cell.next_hop(), cell.flow);
}

void SlottedNetwork::enqueue_or_drop(Cell& cell, std::uint64_t unpopped) {
  const bool capped = config_.max_queue_cells > 0;
  const bool ecn_on = config_.ecn_threshold_cells > 0;
  if (capped || ecn_on) {
    // The capacity check and the ECN mark judge the same size, so a mark
    // is byte-identical at any thread count whenever the drop decision is.
    const std::uint64_t size =
        voqs_.size_of(cell.current(), cell.next_hop()) + unpopped;
    if (capped && size >= config_.max_queue_cells) {
      drop(cell);
      return;
    }
    if (ecn_on && size >= config_.ecn_threshold_cells) {
      cell.ecn = true;
      metrics_.on_ecn_mark();
      if (telemetry_ != nullptr) telemetry_->on_ecn_mark();
    }
  }
  voqs_.push(cell);
}

void SlottedNetwork::deliver(const Cell& cell) {
  if (checker_ != nullptr) checker_->on_deliver(now_, cell);
  // The cell arrives at the end of the slot; only first copies that
  // advanced an open flow are echoed to the transport as acks.
  const bool first_copy = metrics_.on_deliver(cell, now_ + 1);
  if (transport_ != nullptr && first_copy) transport_->on_ack(cell, now_ + 1);
}

// One slot, sharded across the pool in a single batch (a 1-thread pool
// runs the single shard inline). Phase 1: each shard scans its contiguous
// node range in order and, for each node, every lane in order, popping
// transmittable heads — node i only ever pops its own queues, so pops are
// disjoint across shards, and a node's index stays in cache for all of its
// lanes — and staging the advanced cells per lane. Phase 2 (coordinating
// thread): the stages are replayed lane by lane, and within a lane in
// shard order, which is node order, so every side effect with observable
// ordering (metrics, trace events, pushes, drops) replays in the order of
// a lane-by-lane, node-by-node sweep and does not depend on the thread
// count.
//
// The replay is equivalent to that interleaved sweep, in which node i
// pushes into its peer's queue *before* nodes j > i pop in the same lane
// and before any node pops in later lanes. A pushed cell is never
// transmittable in the same slot (ready_slot > now), so deferring the
// pushes can change queue *sizes* only, never heads; the merge
// reconstructs the interleaved-order size from the popped_ marks
// (pops_after_push).
void SlottedNetwork::step() {
  PhaseProfiler* const prof =
      profiler_ != nullptr ? &profiler_->phases() : nullptr;
  const int lanes = config_.lanes;
  {
    ScopedPhase advance(prof, ProfPhase::kScheduleAdvance);
    const Slot period = schedule_->period();
    for (int lane = 0; lane < lanes; ++lane) {
      lane_matchings_[static_cast<std::size_t>(lane)] = &schedule_->matching_at(
          now_ + lane_phase(period, lanes, lane));
    }
  }
  // Turnaround at the relay: receivable next slot at the earliest; the
  // propagation delay is modelled in readiness as whole slots (rounded up)
  // and in wall-clock latency exactly (metrics).
  const Slot prop_slots =
      (config_.propagation_per_hop + config_.slot_duration - 1) /
      config_.slot_duration;
  in_parallel_sweep_ = true;
  try {
    ScopedPhase sweep(prof, ProfPhase::kLaneSweep);
    pool_->run_shards(
        static_cast<int>(shard_plan_.size()), [&, this](int s) {
          const ShardRange range = shard_plan_[static_cast<std::size_t>(s)];
          ShardStage& stage = stages_[static_cast<std::size_t>(s)];
          for (std::vector<StagedEvent>& events : stage.lanes) events.clear();
          stage.pops = 0;
          for (NodeId i = range.begin; i < range.end; ++i) {
            for (int lane = 0; lane < lanes; ++lane) {
              // A node's marks are written by the shard that owns it, so
              // every mark of the slot is reset here, not in a serial fill.
              std::uint8_t& popped =
                  popped_[static_cast<std::size_t>(i) * lanes + lane];
              popped = 0;
              const NodeId peer =
                  lane_matchings_[static_cast<std::size_t>(lane)]->dst_of(i);
              if (peer == i) continue;
              if (failures_.any_failures() && !failures_.usable(i, peer))
                continue;
              // Gray decisions are stateless seeded hashes (no shared Rng),
              // so shards can evaluate them; the merge replays the outcome
              // in order like every other side effect. A throttled
              // circuit's inactive slot behaves like a one-slot outage:
              // the head cell stays queued and retries next opportunity.
              const GrayCircuit* gray = nullptr;
              if (gray_.any()) {
                gray = gray_.find(i, peer);
                if (gray != nullptr &&
                    !gray_.slot_active(now_, i, peer, *gray))
                  continue;
              }
              const Cell* head = voqs_.peek(i, peer, now_);
              if (head == nullptr) continue;
              StagedEvent ev;
              ev.cell = *head;
              voqs_.pop_sharded(i, peer);
              ++stage.pops;
              popped = 1;
              std::vector<StagedEvent>& events =
                  stage.lanes[static_cast<std::size_t>(lane)];
              if (gray != nullptr &&
                  gray_.cell_lost(now_, i, peer, *gray, ev.cell)) {
                ev.gray_drop = true;
                events.push_back(ev);
                continue;
              }
              ++ev.cell.hop;
              ev.deliver = ev.cell.at_destination();
              if (!ev.deliver) ev.cell.ready_slot = now_ + 1 + prop_slots;
              events.push_back(ev);
            }
          }
        });
  } catch (...) {
    // A throwing shard increments stage.pops before the statement that can
    // throw, so summing the stages restores the VoqSet size invariant even
    // for the partial sweep. The cells staged this sweep are discarded —
    // the network stays usable but this slot under-delivers.
    in_parallel_sweep_ = false;
    std::uint64_t pops = 0;
    for (const ShardStage& stage : stages_) pops += stage.pops;
    voqs_.settle_total(pops);
    throw;
  }
  in_parallel_sweep_ = false;
  // Both the capacity check and the ECN mark decision need the
  // interleaved-order queue size, reconstructed from the popped_ marks.
  const bool sized =
      config_.max_queue_cells > 0 || config_.ecn_threshold_cells > 0;
  {
    ScopedPhase merge(prof, ProfPhase::kMergeReplay);
    for (int lane = 0; lane < lanes; ++lane) {
      for (ShardStage& stage : stages_) {
        for (StagedEvent& ev : stage.lanes[static_cast<std::size_t>(lane)]) {
          if (ev.gray_drop) {
            // Transmitted but lost in flight; the end-host retransmission
            // policy recovers the flow, duplicates are dedupped at the
            // receiver. hop was not advanced for a lost cell: current()/
            // next_hop() are still the circuit it was popped from.
            if (checker_ != nullptr)
              checker_->on_transmit(now_, ev.cell.current(),
                                    ev.cell.next_hop());
            metrics_.on_gray_drop();
            if (telemetry_ != nullptr)
              telemetry_->on_gray_drop(now_, ev.cell.current(),
                                       ev.cell.next_hop(), ev.cell.flow);
            continue;
          }
          const NodeId src = ev.cell.path.at(ev.cell.hop - 1);
          const NodeId at = ev.cell.current();
          if (checker_ != nullptr) checker_->on_transmit(now_, src, at);
          if (ev.deliver) {
            deliver(ev.cell);
            continue;
          }
          metrics_.on_forward();
          enqueue_or_drop(ev.cell,
                          sized ? pops_after_push(src, at, ev.cell.next_hop(),
                                                  lane)
                                : 0);
        }
      }
    }
  }
  {
    ScopedPhase settle(prof, ProfPhase::kVoqSettle);
    std::uint64_t pops = 0;
    for (const ShardStage& stage : stages_) pops += stage.pops;
    voqs_.settle_total(pops);
  }
  metrics_.on_slot(voqs_.total_queued());
  if (checker_ != nullptr) {
    checker_->on_slot_end(now_, metrics_.injected_cells(),
                          metrics_.delivered_cells(),
                          metrics_.dropped_cells(), voqs_.total_queued());
  }
  // Sample before advancing: the row is stamped with the slot it covers.
  // The max-VOQ-depth scan is only paid on sampled slots.
  if (telemetry_ != nullptr && telemetry_->sample_due(now_)) {
    ScopedPhase flush(prof, ProfPhase::kTelemetryFlush);
    telemetry_->sample(now_, metrics_.injected_cells(),
                       metrics_.delivered_cells(), metrics_.dropped_cells(),
                       metrics_.forwarded_cells(), voqs_.total_queued(),
                       voqs_.max_queue_depth(), metrics_.open_flows());
  }
  if (profiler_ != nullptr) {
    // Gauges read sizes only; metrics/RNG are untouched, so the sampled
    // artifacts cannot diverge between profiled and unprofiled runs.
    profiler_->memory().tick(now_);
    prof->end_slot();
  }
  ++now_;
}

// The sweep has already made every pop of the slot, so queue (at, next)
// is short by pops the interleaved sweep makes only after this push: the
// pop `at` makes in the same lane when it comes after `src` in node order,
// and every pop `at` makes of that queue in a later lane. (`at` is the
// only node popping its queues, and two lanes whose phases land on the
// same matching serve the same queue twice in one slot.)
std::uint64_t SlottedNetwork::pops_after_push(NodeId src, NodeId at,
                                              NodeId next, int lane) const {
  const int lanes = config_.lanes;
  const std::uint8_t* const popped =
      &popped_[static_cast<std::size_t>(at) * lanes];
  std::uint64_t pops = 0;
  for (int l = at > src ? lane : lane + 1; l < lanes; ++l) {
    if (popped[l] &&
        lane_matchings_[static_cast<std::size_t>(l)]->dst_of(at) == next)
      ++pops;
  }
  return pops;
}

void SlottedNetwork::run(Slot slots) {
  for (Slot s = 0; s < slots; ++s) step();
}

void SlottedNetwork::reconfigure(const CircuitSchedule* schedule,
                                 const Router* router) {
  SORN_ASSERT(schedule != nullptr && router != nullptr,
              "cannot reconfigure to a null schedule/router");
  SORN_ASSERT(schedule->node_count() == n_,
              "reconfiguration must preserve the node count");
  schedule_ = schedule;
  router_ = router;
  if (telemetry_ != nullptr) telemetry_->on_reconfigure(now_);
}

void SlottedNetwork::reset_metrics() {
  metrics_.reset_counters();
  if (checker_ != nullptr) checker_->on_counter_reset(voqs_.total_queued());
}

void SlottedNetwork::set_invariant_checker(InvariantChecker* checker) {
  checker_ = checker;
  if (checker_ != nullptr) {
    checker_->on_attach(&failures_, metrics_.injected_cells(),
                        metrics_.delivered_cells(), metrics_.dropped_cells(),
                        voqs_.total_queued());
  }
}

void SlottedNetwork::set_threads(int threads) {
  SORN_ASSERT(threads >= 1, "need at least one engine thread");
  pool_ = std::make_unique<ThreadPool>(threads);
  shard_plan_ = shard_ranges(n_, threads);
  stages_.assign(shard_plan_.size(),
                 ShardStage{std::vector<std::vector<StagedEvent>>(
                                static_cast<std::size_t>(config_.lanes)),
                            0});
  lane_matchings_.assign(static_cast<std::size_t>(config_.lanes), nullptr);
  popped_.assign(static_cast<std::size_t>(n_) * config_.lanes, 0);
  // A pool created while a profiler is attached starts accounting
  // immediately (set_threads after set_profiler and vice versa both work).
  if (profiler_ != nullptr) pool_->enable_profiling(true);
}

void SlottedNetwork::set_profiler(Profiler* profiler) {
  profiler_ = profiler;
  pool_->enable_profiling(profiler != nullptr);
  if (profiler == nullptr) return;
  // Register this network's byte gauges. The lambdas borrow `this`; the
  // attachment must be cleared (set_profiler(nullptr) does not unregister
  // — the profiler simply must not be sampled after the network dies).
  MemoryAccountant& mem = profiler->memory();
  mem.register_provider("voq_cells", [this] { return voqs_.memory_bytes(); });
  mem.register_provider("schedule_matchings",
                        [this] { return schedule_->memory_bytes(); });
  mem.register_provider("flow_records",
                        [this] { return metrics_.flow_records_bytes(); });
  mem.register_provider("retransmit_state", [this] {
    return metrics_.retransmit_state_bytes();
  });
  mem.register_provider("metrics_distributions", [this] {
    return metrics_.distributions_bytes();
  });
}

void SlottedNetwork::snapshot_pool_utilization() {
  if (profiler_ != nullptr)
    profiler_->set_pool_utilization(pool_->utilization());
}

void SlottedNetwork::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  metrics_.set_tracer(telemetry != nullptr ? &telemetry->tracer() : nullptr);
}

bool SlottedNetwork::fail_node(NodeId node) {
  if (!failures_.fail_node(node)) return false;
  if (telemetry_ != nullptr) telemetry_->on_node_fail(now_, node);
  return true;
}

bool SlottedNetwork::heal_node(NodeId node) {
  if (!failures_.heal_node(node)) return false;
  if (telemetry_ != nullptr) telemetry_->on_node_heal(now_, node);
  return true;
}

bool SlottedNetwork::fail_circuit(NodeId src, NodeId dst) {
  if (!failures_.fail_circuit(src, dst)) return false;
  if (telemetry_ != nullptr) telemetry_->on_circuit_fail(now_, src, dst);
  return true;
}

bool SlottedNetwork::heal_circuit(NodeId src, NodeId dst) {
  if (!failures_.heal_circuit(src, dst)) return false;
  if (telemetry_ != nullptr) telemetry_->on_circuit_heal(now_, src, dst);
  return true;
}

bool SlottedNetwork::degrade_circuit(NodeId src, NodeId dst, double loss_p) {
  if (!gray_.degrade_circuit(src, dst, loss_p)) return false;
  if (telemetry_ != nullptr) {
    const GrayCircuit* g = gray_.find(src, dst);
    telemetry_->on_circuit_degrade(now_, src, dst, loss_p,
                                   g != nullptr ? g->capacity : 1.0);
  }
  return true;
}

bool SlottedNetwork::throttle_circuit(NodeId src, NodeId dst,
                                      double capacity) {
  if (!gray_.throttle_circuit(src, dst, capacity)) return false;
  if (telemetry_ != nullptr) {
    const GrayCircuit* g = gray_.find(src, dst);
    telemetry_->on_circuit_degrade(now_, src, dst,
                                   g != nullptr ? g->loss_p : 0.0, capacity);
  }
  return true;
}

bool SlottedNetwork::restore_circuit(NodeId src, NodeId dst) {
  if (!gray_.restore_circuit(src, dst)) return false;
  if (telemetry_ != nullptr) telemetry_->on_circuit_restore(now_, src, dst);
  return true;
}

std::uint64_t SlottedNetwork::restore_all_gray() {
  std::uint64_t restored = 0;
  for (const auto& [s, d, g] : gray_.degraded_circuits())
    restored += restore_circuit(s, d) ? 1 : 0;
  return restored;
}

std::uint64_t SlottedNetwork::heal_all() {
  std::uint64_t healed = 0;
  for (NodeId i = 0; i < n_; ++i)
    if (failures_.is_node_failed(i)) healed += heal_node(i) ? 1 : 0;
  // Iterate a copy of the failed set (heal_circuit mutates it). The set
  // is sorted by (src, dst), so telemetry fires in the same order the old
  // all-pairs scan produced — without the O(N^2) sweep.
  const std::vector<std::pair<NodeId, NodeId>> failed =
      failures_.failed_circuits();
  for (const auto& [s, d] : failed) healed += heal_circuit(s, d) ? 1 : 0;
  return healed;
}

std::uint64_t SlottedNetwork::retransmit_stalled(
    const RetransmitPolicy& policy) {
  if (policy.timeout_slots <= 0) return 0;
  // Re-admission routes with rng_; a draw inside the parallel sweep would
  // break cross-thread-count determinism (same contract as injection).
  SORN_ASSERT(!in_parallel_sweep_, "retransmit during parallel sweep");
  // Runs between slots; the interval lands in the next slot's breakdown.
  ScopedPhase scope(profiler_ != nullptr ? &profiler_->phases() : nullptr,
                    ProfPhase::kRetransmit);
  const std::vector<SimMetrics::StalledFlow> stalled =
      metrics_.collect_retransmits(now_, policy.timeout_slots,
                                   policy.max_attempts, policy.jitter_frac,
                                   config_.seed ^ 0x62636b6f66664a74ULL);
  std::uint64_t cells = 0;
  for (const SimMetrics::StalledFlow& sf : stalled) {
    // Bulk-classified flows were injected via the bulk router
    // (inject_flow_with) and must be re-admitted through it: the two
    // routers are different path classes (Opera: bulk rides the direct
    // rotation circuit), not interchangeable load-balancers.
    const Router& router =
        sf.bulk && bulk_router_ != nullptr ? *bulk_router_ : *router_;
    for (const std::uint32_t seq : sf.missing) {
      Cell cell;
      cell.flow = sf.flow;
      cell.seq = seq;
      cell.path = router.route(sf.src, sf.dst, now_, rng_);
      cell.hop = 0;
      cell.inject_slot = now_;  // copy latency; FCT uses the flow record
      cell.ready_slot = now_;
      metrics_.on_retransmit_cell();
      ++cells;
      enqueue_or_drop(cell);
    }
    if (telemetry_ != nullptr) {
      telemetry_->on_retransmit(now_, sf.flow, sf.missing.size(),
                                sf.attempt);
    }
  }
  return cells;
}

}  // namespace sorn
