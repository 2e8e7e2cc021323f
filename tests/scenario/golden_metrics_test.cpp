// Golden metrics: one small pinned scenario per registered design. The
// exact flow counts, delivered cells, mean hops and median cell latency
// are part of the determinism contract — any change to schedules,
// routing, the slot engine or the scenario wiring that moves these
// numbers must be intentional and update them here.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "core/sorn.h"
#include "scenario/scenario_runner.h"
#include "sim/artifact_digest.h"
#include "sim/saturation.h"
#include "traffic/patterns.h"

namespace sorn {
namespace {

// 16 nodes fits every design: even (opera), 4^2 (orn-hd), 4x4
// (orn-mixed), 4 cliques (sorn), 2 clusters x 2 pods (hier).
ScenarioConfig pinned_config(const std::string& design) {
  ScenarioConfig cfg;
  cfg.design = design;
  cfg.nodes = 16;
  cfg.cliques = 4;
  cfg.clusters = 2;
  cfg.pods_per_cluster = 2;
  cfg.orn_dims = 2;
  cfg.dwell_slots = 10;
  cfg.slots = 2000;
  cfg.load = 0.3;
  cfg.flow_size = FlowSizeKind::kFixed;
  cfg.fixed_flow_bytes = 2560;  // 10 cells per flow
  cfg.threads = 1;
  return cfg;
}

struct Golden {
  const char* design;
  std::uint64_t flows;
  std::uint64_t delivered_cells;
  double mean_hops;
  double cell_lat_p50_ps;
};

// Captured from a --threads 1 run of pinned_config(); identical at any
// thread count (parallel engine byte-equivalence).
constexpr Golden kGolden[] = {
    {"hier", 961u, 9610u, 2.256400, 4550000},
    {"opera", 961u, 9610u, 1.000000, 13000000},
    {"orn-hd", 961u, 9610u, 2.998231, 11100000},
    {"orn-mixed", 961u, 9610u, 3.483247, 48900000},
    {"rotor", 961u, 9610u, 1.934131, 14300000},
    {"sorn", 961u, 9610u, 2.121228, 4200000},
    {"vlb", 961u, 9610u, 1.934131, 4200000},
};

std::unique_ptr<ScenarioRunner> run_pinned(const ScenarioConfig& cfg) {
  std::string error;
  auto runner = ScenarioRunner::create(cfg, &error);
  EXPECT_NE(runner, nullptr) << cfg.design << ": " << error;
  if (runner == nullptr) return nullptr;
  EXPECT_TRUE(runner->run(&error)) << cfg.design << ": " << error;
  return runner;
}

TEST(GoldenMetricsTest, EveryDesignMatchesPinnedMetrics) {
  // The golden table covers exactly the registered designs.
  const std::vector<std::string> names = DesignRegistry::instance().names();
  ASSERT_EQ(names.size(), std::size(kGolden));

  for (const Golden& g : kGolden) {
    auto runner = run_pinned(pinned_config(g.design));
    ASSERT_NE(runner, nullptr);
    EXPECT_EQ(runner->flows_injected(), g.flows) << g.design;
    EXPECT_EQ(runner->metrics().delivered_cells(), g.delivered_cells)
        << g.design;
    EXPECT_NEAR(runner->metrics().mean_hops(), g.mean_hops, 1e-6) << g.design;
    EXPECT_DOUBLE_EQ(runner->metrics().cell_latency_ps().percentile(50.0),
                     g.cell_lat_p50_ps)
        << g.design;
    EXPECT_EQ(runner->metrics().dropped_cells(), 0u) << g.design;
  }
}

TEST(GoldenMetricsTest, MetricsIdenticalAtFourThreads) {
  for (const Golden& g : kGolden) {
    ScenarioConfig cfg = pinned_config(g.design);
    auto one = run_pinned(cfg);
    cfg.threads = 4;
    auto four = run_pinned(cfg);
    ASSERT_NE(one, nullptr);
    ASSERT_NE(four, nullptr);
    // The full exported document — every counter, histogram and
    // percentile — must be byte-identical across thread counts.
    EXPECT_EQ(one->metrics_json(), four->metrics_json()) << g.design;
  }
}

// FNV-1a digests of each design's pinned run with a trace attached: the
// metrics JSON (which then carries the telemetry counters) and the JSONL
// trace. Every fabric is built by the registry alone; these bytes were
// captured while orn-hd, hier and opera still had their own routers and
// facade, so the ports to the shared constructions are pinned exact.
// Extra rows cover the paths the plain pinned run skips: opera's
// short/bulk split and the sorn control loop's schedule swaps.
struct GoldenDigest {
  const char* label;
  const char* design;
  std::function<void(ScenarioConfig*)> tweak;
  std::uint64_t metrics_json;
  std::uint64_t trace;
};

void opera_split(ScenarioConfig* cfg) {
  cfg->flow_size = FlowSizeKind::kPfabricDataMining;
  cfg->flow_size_cap = 1 << 16;
  cfg->classify = ClassifyKind::kSize;
  cfg->bulk_cutoff_bytes = 15000;
}

void sorn_control_loop(ScenarioConfig* cfg) {
  cfg->epoch_slots = 500;
  cfg->fault_script = "700 fail-node 5\n1400 heal-node 5\n";
  cfg->retransmit_timeout = 64;
}

const GoldenDigest kDigests[] = {
    {"hier", "hier", nullptr, 0x16c2791b5ec14b46, 0x025259785e5582af},
    {"opera", "opera", nullptr, 0x5491ae59fcce5a55, 0xeab1e84bec802022},
    {"opera split", "opera", opera_split,
     0xc406a8aeefd94656, 0xf4637d5befce6d85},
    {"orn-hd", "orn-hd", nullptr, 0x86b78a8898a2dd25, 0xc111656b66682f7a},
    {"orn-mixed", "orn-mixed", nullptr, 0xca51265a1c1c2998, 0x50bd7727546c12c3},
    {"rotor", "rotor", nullptr, 0x0aa6f72fd2b1efc6, 0xf27723287b5dbf93},
    {"sorn", "sorn", nullptr, 0xa9c42dd18ee2b6c4, 0x9506f1724f4f8866},
    {"sorn control loop", "sorn", sorn_control_loop,
     0x9265830cf06bf8d0, 0xe84cd882eb8b5b0b},
    {"vlb", "vlb", nullptr, 0x37172cb634e5cf15, 0x1717fc45cdf451fd},
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(GoldenMetricsTest, EveryDesignMatchesPinnedDigests) {
  for (const GoldenDigest& g : kDigests) {
    ScenarioConfig cfg = pinned_config(g.design);
    if (g.tweak) g.tweak(&cfg);
    // PID-unique: ctest runs each TEST of this binary concurrently.
    cfg.trace_path = testing::TempDir() + "golden_digest_" +
                     std::to_string(::getpid()) + ".jsonl";
    auto runner = run_pinned(cfg);
    ASSERT_NE(runner, nullptr) << g.label;
    const std::string trace = slurp(cfg.trace_path);
    std::remove(cfg.trace_path.c_str());
    EXPECT_FALSE(trace.empty()) << g.label;
    EXPECT_EQ(digest::fnv1a(runner->metrics_json()), g.metrics_json)
        << g.label << std::hex << ": metrics_json digest 0x"
        << digest::fnv1a(runner->metrics_json());
    EXPECT_EQ(digest::fnv1a(trace), g.trace)
        << g.label << std::hex << ": trace digest 0x" << digest::fnv1a(trace);
  }
}

TEST(GoldenMetricsTest, RunnerMatchesHandBuiltSorn) {
  // The scenario path must be observationally identical to building the
  // same fabric by hand, the way pre-scenario callers did.
  ScenarioConfig cfg = pinned_config("sorn");
  cfg.workload = WorkloadKind::kSaturation;
  cfg.warmup_slots = 1000;
  cfg.measure_slots = 2000;
  auto runner = run_pinned(cfg);
  ASSERT_NE(runner, nullptr);

  SornConfig scfg;
  scfg.nodes = cfg.nodes;
  scfg.cliques = cfg.cliques;
  scfg.locality_x = cfg.locality_x;
  scfg.max_q_denominator = cfg.max_q_denominator;
  const SornNetwork net = SornNetwork::build(scfg);
  NetworkConfig ncfg;
  ncfg.slot_duration = cfg.slot_ns * 1000;
  ncfg.propagation_per_hop = cfg.propagation_ns * 1000;
  SlottedNetwork sim(&net.schedule(), &net.router(), ncfg);
  sim.set_threads(1);
  const TrafficMatrix tm = patterns::locality_mix(net.cliques(),
                                                  cfg.locality_x);
  SaturationSource source(&tm, SaturationConfig{});
  const double by_hand = source.measure(sim, 1000, 2000);

  EXPECT_DOUBLE_EQ(runner->saturation_r(), by_hand);
  EXPECT_EQ(runner->metrics().delivered_cells(),
            sim.metrics().delivered_cells());
}

}  // namespace
}  // namespace sorn
