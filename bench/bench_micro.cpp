// Engine microbenchmarks (google-benchmark): schedule construction and
// lookup, route selection, VOQ index operations, simulator slot
// throughput, and the control plane's replan (clustering and planning).
//
//   build/bench/bench_micro --benchmark_min_time=0.05
//       --benchmark_out=bench_micro.json --benchmark_out_format=json
// (one command line; CI runs it this way and uploads the JSON).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "control/clustering.h"
#include "control/optimizer.h"
#include "core/sorn.h"
#include "routing/vlb.h"
#include "sim/saturation.h"
#include "sim/voq.h"
#include "topo/schedule_builder.h"
#include "traffic/patterns.h"
#include "traffic/traffic_matrix.h"
#include "util/rng.h"

namespace {

using namespace sorn;

void BM_BuildRoundRobin(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    CircuitSchedule s = ScheduleBuilder::round_robin(n);
    benchmark::DoNotOptimize(s.period());
  }
}
BENCHMARK(BM_BuildRoundRobin)->Arg(64)->Arg(256)->Arg(1024);

void BM_BuildSornSchedule(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const auto cliques = CliqueAssignment::contiguous(n, 8);
  for (auto _ : state) {
    CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{9, 2});
    benchmark::DoNotOptimize(s.period());
  }
}
BENCHMARK(BM_BuildSornSchedule)->Arg(64)->Arg(128)->Arg(256);

void BM_ScheduleLookup(benchmark::State& state) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(1024);
  Slot t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.dst_of(static_cast<NodeId>(t % 1024), t));
    ++t;
  }
}
BENCHMARK(BM_ScheduleLookup);

void BM_SornRoute(benchmark::State& state) {
  const auto cliques = CliqueAssignment::contiguous(128, 8);
  const CircuitSchedule s = ScheduleBuilder::sorn(cliques, Rational{9, 2});
  const SornRouter router(&s, &cliques, LbMode::kRandom);
  Rng rng(1);
  Slot t = 0;
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(t % 128);
    const auto dst = static_cast<NodeId>((t * 37 + 1) % 128);
    if (src != dst) {
      benchmark::DoNotOptimize(router.route(src, dst, t, rng));
    }
    ++t;
  }
}
BENCHMARK(BM_SornRoute);

void BM_VlbRoute(benchmark::State& state) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(128);
  const VlbRouter router(&s, LbMode::kRandom);
  Rng rng(1);
  Slot t = 0;
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(t % 128);
    const auto dst = static_cast<NodeId>((t * 37 + 1) % 128);
    if (src != dst) {
      benchmark::DoNotOptimize(router.route(src, dst, t, rng));
    }
    ++t;
  }
}
BENCHMARK(BM_VlbRoute);

// A VoqSet shaped like the Table-1 engine's: every node holds one cell in
// each of 64 queues toward random next hops (the mean occupancy measured
// at N = 4096, 16 lanes). `hits` are occupied (node, next hop) pairs and
// `misses` unoccupied ones, both in random order so lookups stride
// across nodes the way a lane sweep's peers do.
struct VoqFixture {
  static constexpr NodeId kNodes = 1024;
  static constexpr int kQueuesPerNode = 64;

  VoqSet voqs{kNodes};
  std::vector<std::pair<NodeId, NodeId>> hits;
  std::vector<std::pair<NodeId, NodeId>> misses;

  VoqFixture() {
    Rng rng(11);
    std::vector<std::uint8_t> used(static_cast<std::size_t>(kNodes));
    for (NodeId node = 0; node < kNodes; ++node) {
      std::fill(used.begin(), used.end(), std::uint8_t{0});
      used[static_cast<std::size_t>(node)] = 1;
      for (int q = 0; q < kQueuesPerNode; ++q) {
        NodeId hop;
        do {
          hop = static_cast<NodeId>(rng.next_below(kNodes));
        } while (used[static_cast<std::size_t>(hop)]);
        used[static_cast<std::size_t>(hop)] = 1;
        voqs.push(cell(node, hop));
        hits.emplace_back(node, hop);
      }
      for (int q = 0; q < kQueuesPerNode; ++q) {
        NodeId hop;
        do {
          hop = static_cast<NodeId>(rng.next_below(kNodes));
        } while (used[static_cast<std::size_t>(hop)]);
        misses.emplace_back(node, hop);
      }
    }
    rng.shuffle(hits);
    rng.shuffle(misses);
  }

  static Cell cell(NodeId node, NodeId hop) {
    Cell c;
    c.path = Path::of({node, hop});
    return c;
  }
};

void BM_VoqPeekHit(benchmark::State& state) {
  const VoqFixture f;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [node, hop] = f.hits[i];
    benchmark::DoNotOptimize(f.voqs.peek(node, hop, 0));
    if (++i == f.hits.size()) i = 0;
  }
}
BENCHMARK(BM_VoqPeekHit);

// The engine's common case: most (node, lane peer) asks find no queue.
void BM_VoqPeekMiss(benchmark::State& state) {
  const VoqFixture f;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [node, hop] = f.misses[i];
    benchmark::DoNotOptimize(f.voqs.peek(node, hop, 0));
    if (++i == f.misses.size()) i = 0;
  }
}
BENCHMARK(BM_VoqPeekMiss);

// Push into an unoccupied queue, then pop it: materializes a queue (index
// insert) and drains it (swap-remove + backward-shift delete) each time,
// at a steady 64 queues per node.
void BM_VoqPushPop(benchmark::State& state) {
  VoqFixture f;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [node, hop] = f.misses[i];
    f.voqs.push(VoqFixture::cell(node, hop));
    f.voqs.pop_sharded(node, hop);
    f.voqs.settle_total(1);
    if (++i == f.misses.size()) i = 0;
  }
}
BENCHMARK(BM_VoqPushPop);

void BM_NetworkSlot(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  SornConfig cfg;
  cfg.nodes = n;
  cfg.cliques = 8;
  cfg.locality_x = 0.56;
  cfg.q = Rational{9, 2};  // near q*(0.56) with a short schedule period
  cfg.propagation_per_hop = 0;
  const SornNetwork net = SornNetwork::build(cfg);
  SlottedNetwork sim = net.make_network();
  const TrafficMatrix tm = patterns::locality_mix(net.cliques(), 0.56);
  SaturationSource source(&tm, SaturationConfig{});
  // Pre-fill queues so every slot does real work.
  for (int i = 0; i < 200; ++i) {
    source.pump(sim);
    sim.step();
  }
  for (auto _ : state) {
    source.pump(sim);
    sim.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NetworkSlot)->Arg(64)->Arg(128)->Arg(256);

// Clustering alone, on a prebuilt affinity: N = 1024 nodes whose demand is
// local under an interleaved grouping (node i in group i % 32, x = 0.6),
// which contiguous seeding cannot read off.
void BM_Cluster(benchmark::State& state) {
  constexpr NodeId kNodes = 1024;
  const auto nc = static_cast<CliqueId>(state.range(0));
  std::vector<CliqueId> hidden(static_cast<std::size_t>(kNodes));
  for (NodeId i = 0; i < kNodes; ++i)
    hidden[static_cast<std::size_t>(i)] = i % 32;
  const TrafficMatrix tm =
      patterns::locality_mix(CliqueAssignment(hidden), 0.6);
  const AffinityMatrix affinity(tm);
  const CliqueClusterer clusterer;
  for (auto _ : state) {
    const CliqueAssignment a = clusterer.cluster(affinity, nc);
    benchmark::DoNotOptimize(a.clique_of(0));
  }
}
BENCHMARK(BM_Cluster)
    ->Arg(4)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// One full replan's optimizer half: the affinity build plus clustering and
// the q choice for every default candidate Nc, on the procedural locality
// demand the scenario workloads use (N / 16 contiguous cliques, x = 0.6).
void BM_SornPlan(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const std::unique_ptr<DemandModel> demand = patterns::make_locality_mix(
      CliqueAssignment::contiguous(n, n / 16), 0.6,
      DemandBackend::kProcedural);
  const SornOptimizer optimizer;
  for (auto _ : state) {
    const SornPlan plan = optimizer.plan(*demand);
    benchmark::DoNotOptimize(plan.locality_x);
  }
}
BENCHMARK(BM_SornPlan)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

BENCHMARK_MAIN();
