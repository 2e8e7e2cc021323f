#include "traced_run.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "control/control_plane.h"
#include "control/optimizer.h"
#include "fault/fault_injector.h"
#include "obs/export.h"
#include "obs/prof/profiler.h"
#include "scenario/scenario_runner.h"
#include "topo/schedule_builder.h"
#include "traffic/arrivals.h"
#include "traffic/flow_size.h"
#include "traffic/sparse_demand.h"
#include "traffic/workloads.h"
#include "transport/transport.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace sorn;

// Top-level spans of the driven loop; they are disjoint, so their sum
// against the loop's wall time gives the unattributed remainder.
enum Span : int {
  kNext,         // ArrivalStream::next
  kInject,       // SlottedNetwork::inject_flow
  kOpenFlow,     // DctcpTransport::open_flow
  kPump,         // DctcpTransport::pump
  kStep,         // SlottedNetwork::step
  kRetransmit,   // SlottedNetwork::retransmit_stalled
  kFaultTick,    // FaultInjector::tick
  kOnEpoch,      // ControlPlane::on_epoch
  kControlTick,  // ControlPlane::tick
  kSpanCount,
};

struct Spans {
  std::array<std::uint64_t, kSpanCount> ns{};
  // Close a span opened at t0; returns its duration.
  std::uint64_t close(Span span, std::uint64_t t0) {
    const std::uint64_t d = PhaseProfiler::now_ns() - t0;
    ns[span] += d;
    return d;
  }
  double ms(Span span) const { return static_cast<double>(ns[span]) / 1e6; }
};

std::uint64_t clock_ns() { return PhaseProfiler::now_ns(); }

// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto index = static_cast<std::ptrdiff_t>(std::clamp(
      rank - 1.0, 0.0, static_cast<double>(v.size() - 1)));
  std::nth_element(v.begin(), v.begin() + index, v.end());
  return static_cast<double>(v[static_cast<std::size_t>(index)]);
}

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// The features this loop reproduces; anything else would silently
// diverge from ScenarioRunner::run.
bool supported(const ScenarioConfig& c, std::string* error) {
  const char* why = nullptr;
  if (c.workload != WorkloadKind::kFlows &&
      c.workload != WorkloadKind::kIncast)
    why = "workload must be flows or incast";
  else if (c.classify != ClassifyKind::kNone)
    why = "classify must be none";
  else if (c.bulk_cutoff_bytes > 0)
    why = "bulk_cutoff_bytes must be 0";
  else if (!c.control_outages.empty() || c.controller_mtbf_slots > 0.0 ||
           c.replan_apply_delay > 0 || c.estimate_stale_epochs > 0 ||
           c.estimate_noise > 0.0)
    why = "control-plane faults are not modelled";
  if (why == nullptr) return true;
  *error = std::string("traced run: ") + why;
  return false;
}

// Mirrors ScenarioRunner::create's control-plane options.
ControlPlane::Options control_options(const ScenarioConfig& c) {
  ControlPlane::Options o;
  o.optimizer.max_q_denominator = c.max_q_denominator;
  o.reconfig.update_delay_slots = c.update_delay_slots;
  o.reconfig.lb_mode =
      c.lb_first_available ? LbMode::kFirstAvailable : LbMode::kRandom;
  return o;
}

FlowSizeDist flow_sizes_of(const ScenarioConfig& c) {
  switch (c.flow_size) {
    case FlowSizeKind::kPfabricWebSearch:
      return FlowSizeDist::pfabric_web_search();
    case FlowSizeKind::kPfabricDataMining:
      return FlowSizeDist::pfabric_data_mining();
    case FlowSizeKind::kFixed:
      break;
  }
  return FlowSizeDist::fixed(c.fixed_flow_bytes);
}

// The arrival stream ScenarioRunner::run_flows builds for the config.
std::unique_ptr<ArrivalStream> make_arrivals(const ScenarioConfig& c,
                                             const SlottedNetwork& net,
                                             const DemandModel* traffic,
                                             const FlowSizeDist* sizes) {
  const Picoseconds slot_ps = net.config().slot_duration;
  if (c.workload == WorkloadKind::kIncast) {
    return std::make_unique<IncastArrivals>(
        c.nodes, c.incast_fanin, c.incast_bytes, c.incast_period_slots,
        slot_ps, Rng(c.arrival_seed));
  }
  const double node_bw = static_cast<double>(net.config().cell_bytes) * 8.0 /
                         (static_cast<double>(slot_ps) * 1e-12);
  return std::make_unique<FlowArrivals>(traffic, sizes, node_bw, c.load,
                                        Rng(c.arrival_seed));
}

// The control plane's view of demand: the estimate with failed nodes'
// rows and columns dropped (as ControlPlane::on_epoch masks it).
std::unique_ptr<SparseDemand> masked_estimate(const ControlPlane& control,
                                              const FailureView& failures) {
  const DemandModel& estimate = control.estimator().estimate();
  SparseDemand::Builder builder(estimate.node_count());
  estimate.for_each_nonzero([&](NodeId i, NodeId j, double d) {
    if (!failures.is_node_failed(i) && !failures.is_node_failed(j))
      builder.set(i, j, d);
  });
  return builder.build(false);
}

}  // namespace

RunCounts counts_of(const SimMetrics& metrics, std::uint64_t flows_injected,
                    std::uint64_t replans) {
  RunCounts c;
  c.slots = metrics.slots_run();
  c.flows_injected = flows_injected;
  c.injected_cells = metrics.injected_cells();
  c.delivered_cells = metrics.delivered_cells();
  c.dropped_cells = metrics.dropped_cells();
  c.completed_flows = metrics.completed_flows();
  c.retransmitted_cells = metrics.retransmitted_cells();
  c.replans = replans;
  return c;
}

bool traced_run(const ScenarioConfig& config, TracedResult* out,
                std::string* error) {
  if (!supported(config, error)) return false;
  ScenarioConfig cfg = config;
  cfg.profile = true;  // the engine's phase timers and memory gauges

  const std::uint64_t create_t0 = clock_ns();
  std::unique_ptr<ScenarioRunner> runner = ScenarioRunner::create(cfg, error);
  const std::uint64_t create_ns = clock_ns() - create_t0;
  if (runner == nullptr) return false;
  SlottedNetwork& net = runner->network();
  Profiler& prof = *runner->profiler();
  const DemandModel& traffic = runner->traffic();

  // The loop owns its transport, injector and control plane, built from
  // the same config fields ScenarioRunner::create reads; the runner's own
  // copies are never ticked because run() is never called.
  std::unique_ptr<DctcpTransport> transport;
  if (cfg.transport == "dctcp") {
    DctcpTransport::Options topt;
    topt.congestion.init_cwnd_cells = cfg.init_cwnd_cells;
    topt.congestion.max_cwnd_cells = cfg.max_cwnd_cells;
    topt.congestion.gain = cfg.dctcp_gain;
    transport = std::make_unique<DctcpTransport>(topt);
    net.set_transport(transport.get());
    const DctcpTransport* t = transport.get();
    prof.memory().register_provider("transport_state",
                                    [t] { return t->memory_bytes(); });
  }
  std::unique_ptr<FaultInjector> injector;
  if (runner->injector() != nullptr) {
    // Same precedence as ScenarioRunner::create: inline text, then file.
    FaultScript script;
    bool parsed = true;
    if (!cfg.fault_script.empty())
      parsed = FaultScript::parse(cfg.fault_script, cfg.nodes, &script, error);
    else if (!cfg.fault_script_path.empty())
      parsed = FaultScript::load(cfg.fault_script_path, cfg.nodes, &script,
                                 error);
    if (!parsed) return false;
    FaultInjectorOptions fopts;
    fopts.node_mtbf_slots = cfg.node_mtbf_slots;
    fopts.node_mttr_slots = cfg.node_mttr_slots;
    fopts.circuit_mtbf_slots = cfg.circuit_mtbf_slots;
    fopts.circuit_mttr_slots = cfg.circuit_mttr_slots;
    fopts.seed = cfg.fault_seed;
    injector = std::make_unique<FaultInjector>(std::move(script), fopts);
  }
  const ControlPlane::Options copts = control_options(cfg);
  std::unique_ptr<ControlPlane> control;
  if (cfg.epoch_slots > 0) {
    control = std::make_unique<ControlPlane>(cfg.nodes, copts);
    control->set_failure_view(&net.failure_view());
  }
  SlottedNetwork::RetransmitPolicy policy;
  policy.timeout_slots = cfg.retransmit_timeout;
  policy.max_attempts = cfg.retransmit_max_attempts;
  policy.jitter_frac = cfg.retransmit_jitter;
  const Slot retransmit_every = std::max<Slot>(1, cfg.retransmit_timeout / 4);

  const FlowSizeDist sizes = flow_sizes_of(cfg);
  std::unique_ptr<ArrivalStream> arrivals =
      make_arrivals(cfg, net, &traffic, &sizes);

  Spans spans;
  std::vector<std::uint64_t> step_ns;
  std::vector<std::uint64_t> replan_ns;

  // ScenarioRunner's slot hook (faults, then the control loop), then
  // WorkloadDriver::before_step's retransmission check.
  auto before_step = [&] {
    const Slot now = net.now();
    if (injector != nullptr) {
      const std::uint64_t t0 = clock_ns();
      injector->tick(net);
      spans.close(kFaultTick, t0);
    }
    if (control != nullptr) {
      if (now > 0 && now % cfg.epoch_slots == 0) {
        const std::uint64_t t0 = clock_ns();
        const bool replanned = control->on_epoch(traffic, now);
        const std::uint64_t d = spans.close(kOnEpoch, t0);
        if (replanned) replan_ns.push_back(d);
      }
      const std::uint64_t t0 = clock_ns();
      control->tick(net, now);
      spans.close(kControlTick, t0);
    }
    if (policy.timeout_slots > 0 && now % retransmit_every == 0) {
      const std::uint64_t t0 = clock_ns();
      net.retransmit_stalled(policy);
      spans.close(kRetransmit, t0);
    }
  };
  auto pump_and_step = [&] {
    if (transport != nullptr) {
      const std::uint64_t t0 = clock_ns();
      transport->pump(net);
      spans.close(kPump, t0);
    }
    const std::uint64_t t0 = clock_ns();
    net.step();
    step_ns.push_back(spans.close(kStep, t0));
  };

  // WorkloadDriver::run_until, span by span.
  const std::uint64_t loop_t0 = clock_ns();
  const Picoseconds slot_ps = net.config().slot_duration;
  const Picoseconds horizon = cfg.slots * slot_ps;
  FlowId next_flow_id = 1;
  std::uint64_t flows_injected = 0;
  FlowArrival pending{};
  bool has_pending = false;
  while (net.now() * slot_ps < horizon) {
    const Picoseconds slot_start = net.now() * slot_ps;
    before_step();
    for (;;) {
      if (!has_pending) {
        const std::uint64_t t0 = clock_ns();
        pending = arrivals->next();
        spans.close(kNext, t0);
        has_pending = true;
      }
      if (pending.time > slot_start + slot_ps || pending.time > horizon)
        break;
      FlowArrival a = pending;
      if (cfg.flow_size_cap > 0) a.bytes = std::min(a.bytes, cfg.flow_size_cap);
      const std::uint64_t t0 = clock_ns();
      if (transport != nullptr) {
        transport->open_flow(net, nullptr, next_flow_id++, a.src, a.dst,
                             a.bytes, 0);
        spans.close(kOpenFlow, t0);
      } else {
        net.inject_flow(next_flow_id++, a.src, a.dst, a.bytes, 0);
        spans.close(kInject, t0);
      }
      ++flows_injected;
      has_pending = false;
    }
    pump_and_step();
  }
  const bool wait_on_flows = policy.timeout_slots > 0;
  for (Slot s = 0; s < cfg.drain_slots; ++s) {
    if (net.cells_in_flight() == 0 &&
        !(wait_on_flows && net.metrics().open_flows() > 0) &&
        !(transport != nullptr && transport->has_backlog()))
      break;
    before_step();
    pump_and_step();
  }
  const std::uint64_t loop_ns = clock_ns() - loop_t0;

  prof.memory().sample();
  net.snapshot_pool_utilization();

  ExportOptions eopts;
  eopts.nodes = cfg.nodes;
  eopts.lanes = net.config().lanes;
  TransportStats tstats;
  if (transport != nullptr) {
    tstats = transport->stats();
    eopts.transport = &tstats;
  }
  out->metrics_json = run_to_json(net.metrics(), nullptr, eopts);
  const std::uint64_t replans = control != nullptr ? control->replans() : 0;
  out->counts = counts_of(net.metrics(), flows_injected, replans);
  out->run_s = static_cast<double>(loop_ns) / 1e9;

  std::map<std::string, double>& m = out->layers;
  m["scenario.create_ms"] = static_cast<double>(create_ns) / 1e6;
  m["sim.step_ms"] = spans.ms(kStep);
  m["sim.step_p50_us"] = quantile(step_ns, 0.50) / 1e3;
  m["sim.step_p99_us"] = quantile(step_ns, 0.99) / 1e3;
  const PhaseProfiler& phases = prof.phases();
  auto phase_ms = [&](ProfPhase p) {
    return static_cast<double>(phases.stats(p).total_ns) / 1e6;
  };
  m["sim.lane_sweep_ms"] = phase_ms(ProfPhase::kLaneSweep);
  m["sim.merge_replay_ms"] = phase_ms(ProfPhase::kMergeReplay);
  m["sim.schedule_advance_ms"] = phase_ms(ProfPhase::kScheduleAdvance);
  m["sim.voq_settle_ms"] = phase_ms(ProfPhase::kVoqSettle);
  double busy = 0.0;
  if (prof.has_pool_utilization()) {
    const PoolUtilization& pool = prof.pool_utilization();
    std::uint64_t busy_ns = 0;
    for (const PoolWorkerStats& w : pool.workers) busy_ns += w.busy_ns;
    const double capacity = static_cast<double>(pool.window_ns) *
                            static_cast<double>(pool.workers.size());
    if (capacity > 0.0) busy = static_cast<double>(busy_ns) / capacity;
  }
  m["sim.pool_busy_frac"] = busy;
  m["sim.inject_ms"] = spans.ms(kInject);
  m["traffic.next_ms"] = spans.ms(kNext);
  m["transport.pump_ms"] = spans.ms(kPump);
  m["transport.open_flow_ms"] = spans.ms(kOpenFlow);
  m["sim.retransmit_ms"] = spans.ms(kRetransmit);
  m["fault.tick_ms"] = spans.ms(kFaultTick);
  m["control.on_epoch_ms"] = spans.ms(kOnEpoch);
  m["control.replan_p50_ms"] = quantile(replan_ns, 0.50) / 1e6;
  m["control.tick_ms"] = spans.ms(kControlTick);
  std::uint64_t covered = 0;
  for (std::uint64_t ns : spans.ns) covered += ns;
  m["unattributed_pct"] =
      loop_ns > 0 ? 100.0 * (static_cast<double>(loop_ns) -
                             static_cast<double>(covered)) /
                        static_cast<double>(loop_ns)
                  : 0.0;

  // Peak of each gauge; a gauge nobody registered (no transport) reads 0.
  std::map<std::string, std::uint64_t> peaks;
  for (const MemoryAccountant::Gauge& g : prof.memory().snapshot())
    peaks[g.name] = g.peak_bytes;
  for (const char* gauge : {"voq_cells", "metrics_distributions",
                            "schedule_matchings", "flow_records",
                            "transport_state"})
    m[std::string("mem.") + gauge + "_mb"] = mb(peaks[gauge]);

  const SimMetrics& sm = net.metrics();
  m["sim.slots"] = static_cast<double>(sm.slots_run());
  m["sim.cells_delivered"] = static_cast<double>(sm.delivered_cells());
  m["sim.dropped_cells"] = static_cast<double>(sm.dropped_cells());
  m["sim.retransmitted_cells"] =
      static_cast<double>(sm.retransmitted_cells());
  m["sim.duplicate_frac"] =
      sm.delivered_cells() > 0
          ? static_cast<double>(sm.duplicate_cells()) /
                static_cast<double>(sm.delivered_cells())
          : 0.0;
  m["transport.ecn_marked"] = static_cast<double>(sm.ecn_marked_cells());
  m["control.replans"] = static_cast<double>(replans);
  m["fault.events"] = static_cast<double>(
      injector != nullptr ? injector->faults_applied() : 0);

  // ---- Layer probes, on the run's own inputs ----
  // Router::route over the run's arrival pairs, with the router the run
  // ended on and a probe-owned Rng, so the run's RNG streams are untouched.
  {
    std::unique_ptr<ArrivalStream> replay =
        make_arrivals(cfg, net, &traffic, &sizes);
    std::vector<FlowArrival> pairs(std::max<std::uint64_t>(1, flows_injected));
    for (FlowArrival& a : pairs) a = replay->next();
    const Router& router = *net.router();
    Rng rng(cfg.seed);
    constexpr std::uint64_t kMinRoutes = 200000;
    std::uint64_t routes = 0;
    std::uint64_t hops = 0;
    const std::uint64_t t0 = clock_ns();
    while (routes < kMinRoutes) {
      for (const FlowArrival& a : pairs) {
        hops += static_cast<std::uint64_t>(
            router.route(a.src, a.dst, a.time / slot_ps, rng).hop_count());
      }
      routes += pairs.size();
    }
    const std::uint64_t d = clock_ns() - t0;
    m["routing.route_ns"] =
        static_cast<double>(d) / static_cast<double>(routes);
    m["routing.mean_hops"] =
        static_cast<double>(hops) / static_cast<double>(routes);
  }
  // One replan split into its two halves: SornOptimizer::plan (clustering
  // and the q choice) and ScheduleBuilder::sorn, over the control plane's
  // final masked estimate.
  double plan_ms = 0.0;
  double build_ms = 0.0;
  double period = 0.0;
  if (control != nullptr) {
    const std::unique_ptr<SparseDemand> demand =
        masked_estimate(*control, net.failure_view());
    const SornOptimizer optimizer(copts.optimizer);
    std::uint64_t t0 = clock_ns();
    const SornPlan plan = optimizer.plan(*demand);
    plan_ms = static_cast<double>(clock_ns() - t0) / 1e6;
    t0 = clock_ns();
    const CircuitSchedule schedule =
        plan.inter_weights.empty()
            ? ScheduleBuilder::sorn(plan.cliques, plan.q,
                                    copts.reconfig.max_period)
            : ScheduleBuilder::sorn_weighted(plan.cliques, plan.q,
                                             plan.inter_weights,
                                             copts.reconfig.weighted,
                                             copts.reconfig.max_period);
    build_ms = static_cast<double>(clock_ns() - t0) / 1e6;
    period = static_cast<double>(schedule.period());
  }
  m["control.plan_ms"] = plan_ms;
  m["topo.schedule_build_ms"] = build_ms;
  m["topo.schedule_period"] = period;
  return true;
}

}  // namespace perfbench
