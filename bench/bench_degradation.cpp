// Oblivious-floor degradation under a full control-plane outage.
//
// The semi-oblivious argument (paper Sec. 4-5) is that adaptivity is an
// optimization, not a dependency: when the controller dies, the data
// plane keeps serving a committed schedule and throughput degrades to —
// never below — an oblivious floor. This bench measures that floor.
//
// Four variants of the same fabric/workload (64-node SORN, locality mix,
// open-loop load above the VLB capacity so schedules differentiate):
//
//   adaptive     — closed control loop, no faults (the ceiling)
//   outage-hold  — controller dies at --outage-slot and never recovers;
//                  safe mode holds the last committed schedule
//   outage-vlb   — same outage; safe mode swaps to round-robin + VLB
//   floor        — the pure-oblivious vlb design end to end (the floor)
//
// Delivered cells/slot are measured in [--measure-from, --slots), fully
// inside the outage. Gates (exit nonzero on failure):
//
//   outage-hold >= --floor-tol x floor   (holding a committed SORN plan
//                                         must not underperform VLB)
//   outage-vlb  >= --floor-tol x floor   (safe-mode VLB IS the floor,
//                                         modulo swap transients)
//
// The outage-vlb variant also runs at --threads 1 and 4 and byte-compares
// the metrics artifacts: outages, safe-mode swaps and invariant hooks must
// not break the parallel-equivalence contract. With --json the summary is
// written for ci/check_bench.py against BENCH_degradation.json.
#include <cstdio>
#include <string>

#include "bench_report.h"
#include "scenario/scenario_runner.h"
#include "util/table.h"

namespace {

using namespace sorn;

struct VariantResult {
  double cells_per_slot = 0.0;
  std::string metrics_json;
  bool ok = false;
  std::string error;
};

VariantResult run_variant(ScenarioConfig cfg, Slot measure_from,
                          Slot measure_to) {
  VariantResult r;
  auto runner = ScenarioRunner::create(cfg, &r.error);
  if (runner == nullptr) return r;
  std::uint64_t at_from = 0, at_to = 0;
  bool saw_from = false, saw_to = false;
  runner->set_slot_hook([&](SlottedNetwork& net, Slot now) {
    if (now == measure_from) {
      at_from = net.metrics().delivered_cells();
      saw_from = true;
    } else if (now == measure_to) {
      at_to = net.metrics().delivered_cells();
      saw_to = true;
    }
  });
  if (!runner->run(&r.error)) return r;
  if (!saw_from || !saw_to) {
    r.error = "measurement window not reached (horizon too short?)";
    return r;
  }
  r.cells_per_slot = static_cast<double>(at_to - at_from) /
                     static_cast<double>(measure_to - measure_from);
  r.metrics_json = runner->metrics_json();
  r.ok = true;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sorn;
  bench::ArgParser args(argc, argv);
  bench::BenchReport report("bench_degradation", args);
  const auto nodes = static_cast<NodeId>(args.get_long("--nodes", 64, 4));
  const auto cliques = static_cast<CliqueId>(args.get_long("--cliques", 8, 1));
  const double locality = args.get_double("--locality", 0.8, 0.0, 1.0);
  const double load = args.get_double("--load", 0.65, 0.01, 1.0);
  const Slot slots = args.get_long("--slots", 12000, 1000);
  const Slot outage_slot = args.get_long("--outage-slot", 4000, 1);
  const Slot measure_from = args.get_long("--measure-from", 6000, 1);
  const Slot epoch = args.get_long("--epoch-slots", 500, 10);
  const double floor_tol = args.get_double("--floor-tol", 0.85, 0.0, 1.0);
  args.finish();
  if (outage_slot >= measure_from || measure_from >= slots) {
    std::fprintf(stderr,
                 "need --outage-slot < --measure-from < --slots "
                 "(got %lld / %lld / %lld)\n",
                 static_cast<long long>(outage_slot),
                 static_cast<long long>(measure_from),
                 static_cast<long long>(slots));
    return 2;
  }

  ScenarioConfig base;
  base.design = "sorn";
  base.nodes = nodes;
  base.cliques = cliques;
  base.locality_x = locality;
  base.propagation_ns = 0;
  base.load = load;
  base.slots = slots;
  base.threads = 1;
  base.epoch_slots = epoch;
  base.check_invariants = true;
  base.flow_size = FlowSizeKind::kFixed;
  base.fixed_flow_bytes = 2560;

  // The outage runs from --outage-slot past the end of the horizon (and
  // the drain): the controller never comes back.
  ScenarioConfig outage = base;
  outage.control_outages = {outage_slot, slots * 100};

  ScenarioConfig floor_cfg = base;
  floor_cfg.design = "vlb";
  floor_cfg.epoch_slots = 0;  // no control loop to lose

  const VariantResult adaptive = run_variant(base, measure_from, slots);
  ScenarioConfig hold_cfg = outage;
  hold_cfg.safe_mode = "hold";
  const VariantResult hold = run_variant(hold_cfg, measure_from, slots);
  ScenarioConfig vlb_cfg = outage;
  vlb_cfg.safe_mode = "vlb";
  const VariantResult vlb1 = run_variant(vlb_cfg, measure_from, slots);
  ScenarioConfig vlb4_cfg = vlb_cfg;
  vlb4_cfg.threads = 4;
  const VariantResult vlb4 = run_variant(vlb4_cfg, measure_from, slots);
  const VariantResult floor = run_variant(floor_cfg, measure_from, slots);

  for (const auto* v : {&adaptive, &hold, &vlb1, &vlb4, &floor}) {
    if (!v->ok) {
      std::fprintf(stderr, "variant failed: %s\n", v->error.c_str());
      return 1;
    }
  }

  const bool equivalent = vlb1.metrics_json == vlb4.metrics_json;
  const double hold_over_floor =
      floor.cells_per_slot > 0.0 ? hold.cells_per_slot / floor.cells_per_slot
                                 : 0.0;
  const double vlb_over_floor =
      floor.cells_per_slot > 0.0 ? vlb1.cells_per_slot / floor.cells_per_slot
                                 : 0.0;
  std::printf(
      "Controller-outage degradation: %d nodes, %d cliques, x=%.2f, "
      "load=%.2f, outage at %lld, window [%lld, %lld)\n\n",
      nodes, cliques, locality, load, static_cast<long long>(outage_slot),
      static_cast<long long>(measure_from), static_cast<long long>(slots));
  TablePrinter table({"variant", "cells/slot", "vs floor"});
  table.add_row({"adaptive (no outage)",
                 format("%.2f", adaptive.cells_per_slot), "-"});
  table.add_row({"outage, safe mode hold",
                 format("%.2f", hold.cells_per_slot),
                 format("%.3f", hold_over_floor)});
  table.add_row({"outage, safe mode vlb",
                 format("%.2f", vlb1.cells_per_slot),
                 format("%.3f", vlb_over_floor)});
  table.add_row({"pure-oblivious floor (vlb design)",
                 format("%.2f", floor.cells_per_slot), "1.000"});
  table.print();
  std::printf("\n");

  report.config("nodes", nodes);
  report.config("cliques", cliques);
  report.config("locality", locality);
  report.config("load", load);
  report.config("slots", slots);
  report.config("outage_slot", outage_slot);
  report.config("measure_from", measure_from);
  report.config("epoch_slots", epoch);
  report.metric("adaptive_cells_per_slot", adaptive.cells_per_slot, 3);
  report.metric("hold_cells_per_slot", hold.cells_per_slot, 3);
  report.metric("vlb_cells_per_slot", vlb1.cells_per_slot, 3);
  report.metric("floor_cells_per_slot", floor.cells_per_slot, 3);
  report.metric("hold_over_floor", hold_over_floor, 4);
  report.metric("vlb_over_floor", vlb_over_floor, 4);
  report.metric("equivalent", equivalent);

  report.gate("equivalence", equivalent,
              "outage-vlb metrics artifact identical at 1 and 4 threads");
  report.gate("hold floor", hold_over_floor >= floor_tol,
              format("safe mode hold at %.3f x floor (>= %.2f)",
                     hold_over_floor, floor_tol));
  report.gate("vlb floor", vlb_over_floor >= floor_tol,
              format("safe mode vlb at %.3f x floor (>= %.2f)",
                     vlb_over_floor, floor_tol));
  return report.finish();
}
