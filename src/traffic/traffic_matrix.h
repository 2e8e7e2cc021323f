// Dense traffic matrices and their macro-scale aggregates.
//
// tm(i, j) is the demand rate from node i to node j, as a fraction of node
// bandwidth. The control plane never optimizes for the raw matrix (the
// paper argues that is unpredictable); it consumes the two macro statistics
// implemented here: the locality ratio x and the clique-aggregated matrix
// (paper Sec. 3).
//
// TrafficMatrix is the DENSE backend of the DemandModel interface
// (demand_model.h) and the only mutable one; consumers that merely read
// demand take a const DemandModel& so sparse/procedural backends can stand
// in byte-identically.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "topo/clique.h"
#include "traffic/demand_model.h"
#include "util/rng.h"
#include "util/types.h"

namespace sorn {

class TrafficMatrix : public DemandModel {
 public:
  explicit TrafficMatrix(NodeId n);

  NodeId node_count() const override { return n_; }

  double at(NodeId src, NodeId dst) const override {
    return demand_[index(src, dst)];
  }
  void set(NodeId src, NodeId dst, double rate);
  void add(NodeId src, NodeId dst, double rate);

  void for_each_nonzero(const NonzeroVisitor& visit) const override;
  std::size_t nonzero_count() const override;

  double total() const override;
  double row_sum(NodeId src) const override;
  double col_sum(NodeId dst) const override;
  // Max over nodes of max(row_sum, col_sum): the load the busiest node
  // must carry; normalizing by it makes the matrix admissible at rate 1.
  double max_node_load() const override;

  // Scale all entries by the given factor.
  void scale(double factor);
  // Scale so that max_node_load() == target (no-op on an all-zero matrix).
  void normalize_node_load(double target = 1.0);

  // Fraction of total demand that stays within a clique (the paper's x).
  double locality_ratio(const CliqueAssignment& cliques) const override;

  // Clique-level aggregate: entry (a, b) sums demand from clique a to b.
  std::vector<double> aggregate(
      const CliqueAssignment& cliques) const override;

  // Draw a (src, dst) pair with probability proportional to demand.
  // Requires total() > 0.
  std::pair<NodeId, NodeId> sample_pair(Rng& rng) const override;

  // Draw a destination for src proportional to the row (the historical
  // per-row CDF of the saturation sources, now owned by the matrix).
  NodeId sample_dst(NodeId src, Rng& rng) const override;

  std::unique_ptr<DemandModel> clone() const override;
  std::size_t memory_bytes() const override;
  DemandBackend backend() const override { return DemandBackend::kDense; }

 private:
  std::size_t index(NodeId src, NodeId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }

  NodeId n_;
  std::vector<double> demand_;
  // Cached prefix sums for sample_pair; rebuilt lazily after mutation.
  mutable std::vector<double> cdf_;
  mutable bool cdf_valid_ = false;
  // Cached per-row prefix sums (flattened N x N, row folds restarting at
  // zero) for sample_dst; rebuilt lazily after mutation.
  mutable std::vector<double> row_cdf_;
  mutable bool row_cdf_valid_ = false;
};

}  // namespace sorn
