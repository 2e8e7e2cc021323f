// CliqueClusterer makes exactly the decisions of the plain clusterer it
// replaced.
//
// reference_cluster() below is that plain implementation, kept as the
// oracle: it rebuilds every row sum per seed, re-sums each candidate's
// affinity to all current members at every greedy step, and re-sums
// clique affinities four times per swap pair. The production clusterer
// keeps running sums and a node-by-clique gain table instead; every
// comparison it makes must see the same bits, so `assign` must match the
// oracle element for element for every Nc that divides N.
//
// The optimizer outputs are also pinned by FNV-1a digest (captured from
// the plain clusterer), so SornOptimizer::plan — which builds one affinity
// matrix for all its candidate clique counts — and HierOptimizer stay
// byte-identical too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "control/clustering.h"
#include "control/hier_optimizer.h"
#include "control/optimizer.h"
#include "sim/artifact_digest.h"
#include "traffic/patterns.h"
#include "traffic/sparse_demand.h"
#include "traffic/traffic_matrix.h"
#include "util/assert.h"
#include "util/rng.h"

namespace sorn {
namespace {

// The plain clusterer, verbatim apart from the free-function form.
std::vector<CliqueId> reference_cluster(const DemandModel& tm, CliqueId nc,
                                        int refine_passes = 3) {
  const NodeId n = tm.node_count();
  const NodeId size = n / nc;
  std::vector<double> aff(static_cast<std::size_t>(n) *
                              static_cast<std::size_t>(n),
                          0.0);
  tm.for_each_nonzero([&aff, n](NodeId i, NodeId j, double d) {
    aff[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(j)] += d;
    aff[static_cast<std::size_t>(j) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(i)] += d;
  });
  auto aff_at = [&](NodeId i, NodeId j) {
    return aff[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(j)];
  };

  std::vector<CliqueId> assign(static_cast<std::size_t>(n), -1);
  std::vector<bool> taken(static_cast<std::size_t>(n), false);
  for (CliqueId c = 0; c < nc; ++c) {
    NodeId seed = kNoNode;
    double best_weight = -1.0;
    for (NodeId i = 0; i < n; ++i) {
      if (taken[static_cast<std::size_t>(i)]) continue;
      double w = 0.0;
      for (NodeId j = 0; j < n; ++j) w += aff_at(i, j);
      if (w > best_weight) {
        best_weight = w;
        seed = i;
      }
    }
    std::vector<NodeId> members{seed};
    taken[static_cast<std::size_t>(seed)] = true;
    assign[static_cast<std::size_t>(seed)] = c;
    while (static_cast<NodeId>(members.size()) < size) {
      NodeId best = kNoNode;
      double best_gain = -1.0;
      for (NodeId i = 0; i < n; ++i) {
        if (taken[static_cast<std::size_t>(i)]) continue;
        double gain = 0.0;
        for (const NodeId m : members) gain += aff_at(i, m);
        if (gain > best_gain) {
          best_gain = gain;
          best = i;
        }
      }
      members.push_back(best);
      taken[static_cast<std::size_t>(best)] = true;
      assign[static_cast<std::size_t>(best)] = c;
    }
  }

  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(nc));
  for (NodeId i = 0; i < n; ++i)
    members[static_cast<std::size_t>(assign[static_cast<std::size_t>(i)])]
        .push_back(i);
  auto clique_affinity = [&](NodeId i, CliqueId c) {
    double w = 0.0;
    for (const NodeId m : members[static_cast<std::size_t>(c)])
      if (m != i) w += aff_at(i, m);
    return w;
  };
  for (int pass = 0; pass < refine_passes; ++pass) {
    bool improved = false;
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        const CliqueId ci = assign[static_cast<std::size_t>(i)];
        const CliqueId cj = assign[static_cast<std::size_t>(j)];
        if (ci == cj) continue;
        const double before = clique_affinity(i, ci) + clique_affinity(j, cj);
        const double after = clique_affinity(i, cj) + clique_affinity(j, ci) -
                             2.0 * aff_at(i, j);
        if (after > before + 1e-12) {
          auto& mi = members[static_cast<std::size_t>(ci)];
          auto& mj = members[static_cast<std::size_t>(cj)];
          *std::find(mi.begin(), mi.end(), i) = j;
          *std::find(mj.begin(), mj.end(), j) = i;
          std::swap(assign[static_cast<std::size_t>(i)],
                    assign[static_cast<std::size_t>(j)]);
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  return assign;
}

std::vector<CliqueId> divisors(NodeId n) {
  std::vector<CliqueId> out;
  for (CliqueId nc = 1; nc <= n; ++nc)
    if (n % nc == 0) out.push_back(nc);
  return out;
}

// Every Nc dividing N, at the default and at a longer refinement.
void expect_matches_reference(const DemandModel& tm) {
  for (const int passes : {3, 8}) {
    CliqueClusterer::Options opts;
    opts.refine_passes = passes;
    const CliqueClusterer clusterer(opts);
    for (const CliqueId nc : divisors(tm.node_count())) {
      const std::vector<CliqueId> want = reference_cluster(tm, nc, passes);
      const CliqueAssignment got = clusterer.cluster(tm, nc);
      ASSERT_EQ(got.node_count(), tm.node_count());
      for (NodeId i = 0; i < tm.node_count(); ++i)
        ASSERT_EQ(got.clique_of(i), want[static_cast<std::size_t>(i)])
            << "node " << i << ", nc " << nc << ", passes " << passes;
    }
  }
}

TrafficMatrix random_dense(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  TrafficMatrix tm(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j)
      if (i != j) tm.set(i, j, rng.next_double());
  return tm;
}

// Small integers: many exact ties among row sums, greedy gains and swap
// gains, so every tie-break rule is exercised.
TrafficMatrix integer_valued(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  TrafficMatrix tm(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j)
      if (i != j) tm.set(i, j, static_cast<double>(rng.next_below(4)));
  return tm;
}

// Small integers with a few entries near 2^53, where a sum's rounding
// depends on the order of its terms: any change in a fold's order flips
// some comparison.
TrafficMatrix mixed_magnitudes(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  TrafficMatrix tm(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j)
      if (i != j)
        tm.set(i, j, rng.next_double() < 0.02
                         ? 0x1p53
                         : static_cast<double>(1 + rng.next_below(3)));
  return tm;
}

TrafficMatrix sparse_random(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  TrafficMatrix tm(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j)
      if (i != j && rng.next_double() < 0.05) tm.set(i, j, rng.next_double());
  return tm;
}

// Planted interleaved cliques (node i in clique i % k) plus a little noise
// so the greedy growth has near-ties to resolve.
TrafficMatrix planted(NodeId n, CliqueId k, double x, std::uint64_t seed) {
  std::vector<CliqueId> hidden(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) hidden[static_cast<std::size_t>(i)] = i % k;
  TrafficMatrix tm = patterns::locality_mix(CliqueAssignment(hidden), x);
  Rng rng(seed);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j)
      if (i != j && rng.next_double() < 0.1)
        tm.add(i, j, 1e-3 * rng.next_double());
  return tm;
}

// Failed nodes' rows and columns dropped the way ControlPlane::on_epoch
// masks them before planning.
std::unique_ptr<SparseDemand> masked(const DemandModel& tm,
                                     const std::vector<NodeId>& failed) {
  SparseDemand::Builder builder(tm.node_count());
  tm.for_each_nonzero([&](NodeId i, NodeId j, double d) {
    const bool dead =
        std::find(failed.begin(), failed.end(), i) != failed.end() ||
        std::find(failed.begin(), failed.end(), j) != failed.end();
    if (!dead) builder.set(i, j, d);
  });
  return builder.build(false);
}

// Dense demand that keeps its diagonal (every shipped backend zeroes it;
// the clusterer must not assume that). Read-only statistics only.
class DiagonalDemand : public DemandModel {
 public:
  DiagonalDemand(NodeId n, std::uint64_t seed)
      : n_(n),
        cells_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)) {
    Rng rng(seed);
    for (double& c : cells_) c = rng.next_double();
  }
  NodeId node_count() const override { return n_; }
  double at(NodeId src, NodeId dst) const override {
    return cells_[static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(dst)];
  }
  std::pair<NodeId, NodeId> sample_pair(Rng&) const override {
    SORN_ASSERT(false, "DiagonalDemand does not sample");
    return {0, 0};
  }
  NodeId sample_dst(NodeId, Rng&) const override {
    SORN_ASSERT(false, "DiagonalDemand does not sample");
    return 0;
  }
  std::unique_ptr<DemandModel> clone() const override {
    return std::make_unique<DiagonalDemand>(*this);
  }
  std::size_t memory_bytes() const override {
    return cells_.size() * sizeof(double);
  }
  DemandBackend backend() const override { return DemandBackend::kDense; }

 private:
  NodeId n_;
  std::vector<double> cells_;
};

TEST(ClusteringEquivalenceTest, RandomDense) {
  for (const std::uint64_t seed : {1, 2, 3})
    expect_matches_reference(random_dense(96, seed));
  expect_matches_reference(random_dense(60, 4));
}

TEST(ClusteringEquivalenceTest, IntegerValuedTies) {
  for (const std::uint64_t seed : {5, 6})
    expect_matches_reference(integer_valued(96, seed));
  expect_matches_reference(integer_valued(40, 7));
}

TEST(ClusteringEquivalenceTest, OrderSensitiveRounding) {
  for (const std::uint64_t seed : {16, 17})
    expect_matches_reference(mixed_magnitudes(96, seed));
}

TEST(ClusteringEquivalenceTest, PlantedInterleavedCliques) {
  std::vector<CliqueId> hidden(96);
  for (NodeId i = 0; i < 96; ++i) hidden[static_cast<std::size_t>(i)] = i % 8;
  expect_matches_reference(
      patterns::locality_mix(CliqueAssignment(hidden), 0.8));
  expect_matches_reference(planted(96, 8, 0.8, 8));
  expect_matches_reference(planted(96, 6, 0.6, 9));
}

TEST(ClusteringEquivalenceTest, Sparse) {
  for (const std::uint64_t seed : {10, 11})
    expect_matches_reference(sparse_random(96, seed));
}

TEST(ClusteringEquivalenceTest, NonzeroDiagonal) {
  expect_matches_reference(DiagonalDemand(96, 12));
}

TEST(ClusteringEquivalenceTest, FailedNodesMasked) {
  const TrafficMatrix dense = random_dense(96, 13);
  expect_matches_reference(*masked(dense, {3, 40, 41, 95}));
  const TrafficMatrix local = planted(96, 8, 0.7, 14);
  expect_matches_reference(*masked(local, {0, 8, 16}));
}

// Larger cliques take many more swaps per pass.
TEST(ClusteringEquivalenceTest, LargerNodeCount) {
  const TrafficMatrix tm = random_dense(256, 15);
  const CliqueClusterer clusterer;
  for (const CliqueId nc : {4, 32}) {
    const std::vector<CliqueId> want = reference_cluster(tm, nc);
    const CliqueAssignment got = clusterer.cluster(tm, nc);
    for (NodeId i = 0; i < 256; ++i)
      ASSERT_EQ(got.clique_of(i), want[static_cast<std::size_t>(i)])
          << "node " << i << ", nc " << nc;
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx,",
                static_cast<unsigned long long>(v));
  out += buf;
}
void append_double(std::string& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t plan_digest(const SornPlan& p) {
  std::string out;
  for (NodeId i = 0; i < p.cliques.node_count(); ++i)
    append_u64(out, static_cast<std::uint64_t>(p.cliques.clique_of(i)));
  append_u64(out, static_cast<std::uint64_t>(p.q.num));
  append_u64(out, static_cast<std::uint64_t>(p.q.den));
  for (const double w : p.inter_weights) append_double(out, w);
  append_double(out, p.locality_x);
  append_double(out, p.predicted_throughput);
  append_double(out, p.predicted_delta_m_intra);
  append_double(out, p.predicted_delta_m_inter);
  append_double(out, p.predicted_mean_delta_m);
  return digest::fnv1a(out);
}

std::uint64_t hier_plan_digest(const HierPlan& p) {
  std::string out;
  for (const NodeId v : p.position_of_node)
    append_u64(out, static_cast<std::uint64_t>(v));
  append_u64(out, static_cast<std::uint64_t>(p.clusters));
  append_u64(out, static_cast<std::uint64_t>(p.pods_per_cluster));
  append_double(out, p.x1);
  append_double(out, p.x2);
  append_u64(out, static_cast<std::uint64_t>(p.shares.intra));
  append_u64(out, static_cast<std::uint64_t>(p.shares.inter));
  append_u64(out, static_cast<std::uint64_t>(p.shares.global));
  append_double(out, p.predicted_throughput);
  return digest::fnv1a(out);
}

TEST(OptimizerDigestTest, SornPlanOnRandomDense) {
  const TrafficMatrix tm = random_dense(128, 21);
  const SornPlan plan = SornOptimizer().plan(tm);
  EXPECT_EQ(plan_digest(plan), 0x71c92bfaf57bb314ULL)
      << std::hex << "0x" << plan_digest(plan);
}

TEST(OptimizerDigestTest, SornPlanWeightedOnPlanted) {
  SornOptimizer::Options opts;
  opts.weighted_inter = true;
  const SornPlan plan = SornOptimizer(opts).plan(planted(128, 16, 0.6, 22));
  EXPECT_EQ(plan_digest(plan), 0xe6a10ee00518520fULL)
      << std::hex << "0x" << plan_digest(plan);
}

// The churn workload's shape: procedural locality demand with failed
// nodes masked out.
TEST(OptimizerDigestTest, SornPlanOnMaskedProcedural) {
  const std::unique_ptr<DemandModel> demand = patterns::make_locality_mix(
      CliqueAssignment::contiguous(256, 16), 0.6, DemandBackend::kProcedural);
  const SornPlan plan = SornOptimizer().plan(*masked(*demand, {5, 77, 200}));
  EXPECT_EQ(plan_digest(plan), 0x39fcdbc762b52f41ULL)
      << std::hex << "0x" << plan_digest(plan);
}

TEST(OptimizerDigestTest, SornPlanForNcOnRandomDense) {
  const TrafficMatrix tm = random_dense(64, 23);
  const SornOptimizer optimizer;
  const SornPlan plan = optimizer.plan_for_nc(tm, 8);
  EXPECT_EQ(plan_digest(plan), 0xf77f76c23e1f3aa5ULL)
      << std::hex << "0x" << plan_digest(plan);
}

TEST(OptimizerDigestTest, HierPlanOnScrambledHierarchy) {
  const NodeId n = 64;
  const TrafficMatrix clean = patterns::hier_locality_mix(
      Hierarchy::regular(n, 4, 4), 0.5, 0.3);
  Rng rng(24);
  std::vector<NodeId> scramble(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) scramble[static_cast<std::size_t>(i)] = i;
  rng.shuffle(scramble);
  TrafficMatrix observed = permute_matrix(clean, scramble);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j)
      if (i != j) observed.add(i, j, 1e-3 * rng.next_double());
  const HierPlan plan = HierOptimizer().plan(observed);
  EXPECT_EQ(hier_plan_digest(plan), 0x9725e23eefc37615ULL)
      << std::hex << "0x" << hier_plan_digest(plan);
}

}  // namespace
}  // namespace sorn
