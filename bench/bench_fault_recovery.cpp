// Fault blast and recovery: throughput dip depth and time-to-recover.
//
// Scenario: a SORN fabric carries an open-loop pFabric workload with
// failure-aware routing and end-host retransmission enabled. At
// --fail-slot a scripted blast fails --fail-frac of the nodes (spread
// across cliques); at --heal-slot they all come back. Delivered cells are
// sampled in fixed windows, giving a throughput trajectory with three
// phases: steady pre-fault, degraded outage, and post-heal recovery.
//
// The fabric, workload, fault injection and retransmission all run
// through one ScenarioRunner (the blast timeline is handed over as a
// fault-script override; the window sampler is the runner's slot hook).
//
// Reported:
//   pre-fault throughput — mean delivered cells/window before the blast
//   dip depth            — worst outage window as a fraction of pre-fault
//   time-to-recover      — slots from the heal until delivered throughput
//                          holds >= 90% of pre-fault for two consecutive
//                          windows
//
// Exits nonzero if throughput never recovers or any flow is left
// permanently stalled (open at the end of the drain) — the acceptance
// gate for the fault-injection subsystem. With --json the summary is
// written machine-readably. --profile / --profile-json attach the
// self-profiler (phase timers land the fault tick under fault_tick and
// the window sampler under slot_hook).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "fault/fault_injector.h"
#include "scenario/scenario_runner.h"
#include "sim/parallel.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sorn;
  bench::ArgParser args(argc, argv);
  bench::BenchReport report("bench_fault_recovery", args);
  const auto nodes = static_cast<NodeId>(args.get_long("--nodes", 64, 4));
  const auto cliques =
      static_cast<CliqueId>(args.get_long("--cliques", 8, 1));
  const double locality = args.get_double("--locality", 0.6, 0.0, 1.0);
  const double load = args.get_double("--load", 0.4, 0.01, 1.0);
  const Slot slots = args.get_long("--slots", 24000, 1000);
  const Slot fail_slot = args.get_long("--fail-slot", 8000, 1);
  const Slot heal_slot = args.get_long("--heal-slot", 12000, 2);
  const double fail_frac = args.get_double("--fail-frac", 0.05, 0.0, 0.9);
  const Slot window = args.get_long("--window", 500, 10);
  const Slot timeout = args.get_long("--retransmit-timeout", 512, 1);
  const int threads = static_cast<int>(
      args.get_long("--threads", ThreadPool::default_threads(), 1));
  ScenarioConfig cfg;
  apply_scenario_flags(args, &cfg, {"profile", "profile_json"});
  args.finish();
  if (heal_slot <= fail_slot || slots <= heal_slot) {
    std::fprintf(stderr,
                 "need --fail-slot < --heal-slot < --slots "
                 "(got %lld / %lld / %lld)\n",
                 static_cast<long long>(fail_slot),
                 static_cast<long long>(heal_slot),
                 static_cast<long long>(slots));
    return 2;
  }

  // The blast: fail_frac of the nodes, spread evenly so every clique
  // takes a proportional hit, all down at fail_slot and back at heal_slot.
  const int blast =
      std::max(1, static_cast<int>(fail_frac * static_cast<double>(nodes)));
  const NodeId stride = std::max<NodeId>(1, nodes / blast);
  std::vector<FaultEvent> events;
  std::vector<NodeId> victims;
  for (int i = 0; i < blast; ++i) {
    const NodeId victim = static_cast<NodeId>(i) * stride % nodes;
    victims.push_back(victim);
    events.push_back({fail_slot, FaultKind::kFailNode, victim, 0});
    events.push_back({heal_slot, FaultKind::kHealNode, victim, 0});
  }
  const FaultScript script = FaultScript::from_events(events);

  cfg.design = "sorn";
  cfg.nodes = nodes;
  cfg.cliques = cliques;
  cfg.locality_x = locality;
  cfg.propagation_ns = 0;
  cfg.threads = threads;
  cfg.load = load;
  cfg.slots = slots;
  cfg.retransmit_timeout = timeout;
  cfg.overrides.fault_script = &script;

  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  if (runner == nullptr) {
    std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
    return 1;
  }

  // Windowed delivered-cell trajectory, sampled on the coordinating
  // thread just before each window's first slot. The runner ticks the
  // fault injector from the same hook (after this sampler), so fault RNG
  // stays off the parallel sweep.
  std::vector<std::uint64_t> cumulative;
  Slot last_boundary = -1;
  runner->set_slot_hook([&](SlottedNetwork& n, Slot now) {
    if (now % window == 0 && now != last_boundary) {
      last_boundary = now;
      cumulative.push_back(n.metrics().delivered_cells());
    }
  });

  if (!runner->run(&error)) {
    std::fprintf(stderr, "scenario failed: %s\n", error.c_str());
    return 1;
  }
  const SimMetrics& metrics = runner->metrics();

  std::vector<double> per_window;  // delivered cells in window i
  for (std::size_t i = 1; i < cumulative.size(); ++i)
    per_window.push_back(
        static_cast<double>(cumulative[i] - cumulative[i - 1]));
  auto window_start = [&](std::size_t i) {
    return static_cast<Slot>(i) * window;
  };

  // Pre-fault throughput: windows entirely inside [warmup, fail_slot).
  const Slot warmup = std::min<Slot>(2000, fail_slot / 4);
  double pre_fault = 0.0;
  int pre_windows = 0;
  for (std::size_t i = 0; i < per_window.size(); ++i) {
    if (window_start(i) < warmup || window_start(i) + window > fail_slot)
      continue;
    pre_fault += per_window[i];
    ++pre_windows;
  }
  if (pre_windows == 0) {
    std::fprintf(stderr, "no full pre-fault window; lower --window\n");
    return 2;
  }
  pre_fault /= pre_windows;

  // Dip depth: worst outage window relative to pre-fault.
  double dip = pre_fault;
  for (std::size_t i = 0; i < per_window.size(); ++i)
    if (window_start(i) >= fail_slot && window_start(i) < heal_slot)
      dip = std::min(dip, per_window[i]);
  const double dip_frac = pre_fault > 0.0 ? dip / pre_fault : 0.0;

  // Time-to-recover: first post-heal window that opens a run of two
  // consecutive windows at >= 90% of pre-fault (while arrivals are still
  // flowing — drain windows decay by construction).
  const double floor_cells = 0.9 * pre_fault;
  Slot recovered_at = -1;
  for (std::size_t i = 0; i + 1 < per_window.size(); ++i) {
    if (window_start(i) < heal_slot || window_start(i + 1) + window > slots)
      continue;
    if (per_window[i] >= floor_cells && per_window[i + 1] >= floor_cells) {
      recovered_at = window_start(i) + window;  // end of the first window
      break;
    }
  }
  const bool recovered = recovered_at >= 0;
  const Slot time_to_recover = recovered ? recovered_at - heal_slot : -1;
  const std::uint64_t open = metrics.open_flows();

  std::printf(
      "Fault recovery: %d nodes, %d cliques, x=%.2f, load=%.2f, "
      "%d-node blast [%lld, %lld), %d threads\n\n",
      nodes, cliques, locality, load, blast,
      static_cast<long long>(fail_slot), static_cast<long long>(heal_slot),
      threads);

  TablePrinter table({"metric", "value"});
  table.add_row({"pre-fault throughput (cells/window)",
                 format("%.1f", pre_fault)});
  table.add_row({"dip depth (worst outage window)",
                 format("%.1f (%.1f%% of pre-fault)", dip, dip_frac * 100.0)});
  table.add_row({"time-to-recover (slots after heal)",
                 recovered ? format("%lld",
                                    static_cast<long long>(time_to_recover))
                           : "never"});
  table.add_row({"retransmit events",
                 format("%llu", static_cast<unsigned long long>(
                                    metrics.retransmit_events()))});
  table.add_row({"retransmitted cells",
                 format("%llu", static_cast<unsigned long long>(
                                    metrics.retransmitted_cells()))});
  table.add_row({"duplicate deliveries",
                 format("%llu", static_cast<unsigned long long>(
                                    metrics.duplicate_cells()))});
  table.add_row({"flows recovered from stall",
                 format("%llu (mean %.0f slots stalled)",
                        static_cast<unsigned long long>(
                            metrics.recovered_flows()),
                        metrics.mean_recovery_slots())});
  table.add_row({"flows still open after drain",
                 format("%llu", static_cast<unsigned long long>(open))});
  table.print();

  std::printf("\n");

  // Every metric here is simulator-deterministic (same seed, same
  // windows), so check_bench.py compares it near-exactly.
  report.config("nodes", nodes);
  report.config("blast_nodes", blast);
  report.config("fail_slot", fail_slot);
  report.config("heal_slot", heal_slot);
  report.metric("pre_fault_cells_per_window", pre_fault, 2);
  report.metric("dip_frac", dip_frac, 4);
  report.metric("recovered", recovered);
  report.metric("time_to_recover_slots", time_to_recover);
  report.metric("retransmit_events", metrics.retransmit_events());
  report.metric("retransmitted_cells", metrics.retransmitted_cells());
  report.metric("duplicate_cells", metrics.duplicate_cells());
  report.metric("recovered_flows", metrics.recovered_flows());
  report.metric("open_flows", open);

  report.gate("recovery gate", recovered && open == 0,
              format("recovered %s, open flows %llu",
                     recovered ? "yes" : "NO",
                     static_cast<unsigned long long>(open)));
  return report.finish();
}
