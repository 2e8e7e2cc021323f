// Chaos campaign driver: N seeded randomized fault-soup runs, invariants
// asserted every slot, thread-count byte-equivalence cross-checked per
// seed (scenario/chaos.h).
//
// Exit nonzero on the first failing seed, printing the one-line replay
// recipe — that command alone reproduces the failure anywhere. With
// --json a machine-readable summary (seeds passed, the per-seed table,
// and on failure the failing seed and its replay recipe) is written; CI
// runs the nightly campaign through this binary and uploads failing
// seeds as artifacts.
#include <cstdio>
#include <string>

#include "bench_report.h"
#include "scenario/chaos.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sorn;
  bench::ArgParser args(argc, argv);
  bench::BenchReport report("bench_chaos", args);
  const std::uint64_t first_seed =
      static_cast<std::uint64_t>(args.get_long("--seed", 1, 0));
  const long runs = args.get_long("--runs", 5, 1);
  ChaosKnobs knobs;
  knobs.nodes = static_cast<NodeId>(args.get_long("--nodes", 32, 4));
  knobs.slots = args.get_long("--slots", 3000, 500);
  knobs.compare_threads =
      static_cast<int>(args.get_long("--compare-threads", 3, 0));
  args.finish();
  report.config("first_seed", first_seed);
  report.config("runs", runs);

  std::uint64_t passed = 0;
  std::uint64_t total_faults = 0, total_gray = 0, total_outages = 0,
                 total_safe = 0, total_replans = 0, total_slots = 0;
  TablePrinter table({"seed", "faults", "gray drops", "ctrl outages",
                      "safe mode", "replans", "slots checked", "verdict"});
  for (long i = 0; i < runs; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    const ChaosResult r = run_chaos(seed, knobs);
    table.add_row(
        {format("%llu", static_cast<unsigned long long>(seed)),
         format("%llu", static_cast<unsigned long long>(r.faults_applied)),
         format("%llu", static_cast<unsigned long long>(r.gray_drops)),
         format("%llu",
                static_cast<unsigned long long>(r.controller_outages)),
         format("%llu",
                static_cast<unsigned long long>(r.safe_mode_activations)),
         format("%llu", static_cast<unsigned long long>(r.replans)),
         format("%llu", static_cast<unsigned long long>(r.invariant_slots)),
         r.ok ? "pass" : "FAIL"});
    if (!r.ok) {
      std::fprintf(stderr, "\nchaos seed %llu FAILED:\n%s\n\nreplay: %s\n",
                   static_cast<unsigned long long>(seed), r.error.c_str(),
                   r.replay.c_str());
      // The failing run's own inputs: its seed and the command that
      // replays it.
      report.config("failed_seed", seed);
      report.config("replay", r.replay);
      break;
    }
    ++passed;
    total_faults += r.faults_applied;
    total_gray += r.gray_drops;
    total_outages += r.controller_outages;
    total_safe += r.safe_mode_activations;
    total_replans += r.replans;
    total_slots += r.invariant_slots;
  }
  table.print();
  std::printf(
      "\n%llu/%ld seeds passed: %llu faults, %llu gray drops, %llu "
      "controller outages, %llu safe-mode entries, %llu replans, %llu "
      "slots invariant-checked.\n\n",
      static_cast<unsigned long long>(passed), runs,
      static_cast<unsigned long long>(total_faults),
      static_cast<unsigned long long>(total_gray),
      static_cast<unsigned long long>(total_outages),
      static_cast<unsigned long long>(total_safe),
      static_cast<unsigned long long>(total_replans),
      static_cast<unsigned long long>(total_slots));

  const bool all_passed = passed == static_cast<std::uint64_t>(runs);
  report.metric("seeds_passed", passed);
  report.metric("all_passed", all_passed);
  report.rows(table);
  report.gate("chaos campaign", all_passed,
              "invariants and thread equivalence held for every seed");
  return report.finish();
}
