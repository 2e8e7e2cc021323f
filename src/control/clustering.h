// Balanced clique clustering from a measured traffic matrix.
//
// Finds an assignment of N nodes into Nc equal cliques that maximizes the
// intra-clique share of demand (the locality ratio x), which directly
// maximizes SORN's achievable throughput r = 1/(3-x). Greedy seeded growth
// followed by pairwise swap refinement; exact balance is required because
// the inter-clique matchings need equal-sized cliques.
#pragma once

#include <cstddef>
#include <vector>

#include "topo/clique.h"
#include "traffic/demand_model.h"

namespace sorn {

// Dense N x N symmetric affinity: at(i, j) = demand(i, j) + demand(j, i).
// Built from the nonzeros; both cells of a pair receive the same additions
// in the same order starting from 0.0, so the matrix is bit-symmetric and
// row(i)[j] stands in for column i of row j.
class AffinityMatrix {
 public:
  explicit AffinityMatrix(const DemandModel& tm);

  NodeId node_count() const { return n_; }
  const double* row(NodeId i) const {
    return cells_.data() +
           static_cast<std::size_t>(i) * static_cast<std::size_t>(n_);
  }

 private:
  NodeId n_;
  std::vector<double> cells_;
};

class CliqueClusterer {
 public:
  struct Options {
    // Passes of pairwise swap refinement after greedy growth.
    int refine_passes = 3;
  };

  CliqueClusterer() : CliqueClusterer(Options()) {}
  explicit CliqueClusterer(Options options);

  // tm.node_count() must be divisible by nc.
  CliqueAssignment cluster(const DemandModel& tm, CliqueId nc) const;
  // Same, on a prebuilt affinity (callers trying several nc build it once).
  CliqueAssignment cluster(const AffinityMatrix& affinity, CliqueId nc) const;

  // Intra-clique demand share of an assignment (the objective).
  static double objective(const DemandModel& tm,
                          const CliqueAssignment& cliques);

 private:
  Options options_;
};

}  // namespace sorn
