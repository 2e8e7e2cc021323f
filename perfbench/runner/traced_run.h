// The traced run: one scenario driven through each layer's public
// functions, with a span around every call, so the per-layer costs of a
// run can be read off without instrumenting the simulator itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "scenario/scenario_config.h"
#include "sim/metrics.h"

namespace perfbench {

// Exact work counts of one run. Two runs of one config agree on every
// field; a count that moves means the algorithm changed, not noise.
struct RunCounts {
  std::uint64_t slots = 0;
  std::uint64_t flows_injected = 0;
  std::uint64_t injected_cells = 0;
  std::uint64_t delivered_cells = 0;
  std::uint64_t dropped_cells = 0;
  std::uint64_t completed_flows = 0;
  std::uint64_t retransmitted_cells = 0;
  std::uint64_t replans = 0;
};

RunCounts counts_of(const sorn::SimMetrics& metrics,
                    std::uint64_t flows_injected, std::uint64_t replans);

struct TracedResult {
  // Same document ScenarioRunner::metrics_json() renders; must match the
  // untraced run byte for byte.
  std::string metrics_json;
  RunCounts counts;
  // Host time of the driven slot loop (the untraced run's run()).
  double run_s = 0.0;
  // Per-layer metrics by name (see perfbench/README.md for the list).
  std::map<std::string, double> layers;
};

// Create the scenario with the profiler attached, drive it slot by slot
// the way WorkloadDriver::run_until and ScenarioRunner's slot hook do,
// then run the layer probes (routing over the run's arrival pairs; on
// workloads with a control loop, one plan and one schedule build over the
// final masked demand estimate). Returns false and sets *error when the
// scenario cannot be created or uses a feature this loop does not model.
bool traced_run(const sorn::ScenarioConfig& config, TracedResult* out,
                std::string* error);

}  // namespace perfbench
