// ProceduralDemand: closed-form demand backend with O(N) state.
//
// The analyzable pattern families (uniform, locality mix, clique ring,
// hierarchical locality mix) are block-structured over the canonical
// contiguous equal-block layouts: every row is a short list of
// constant-value column runs, and all rows in the same block share the
// SAME diagonal-less value sequence (removing one element from a constant
// run yields the same list regardless of where the diagonal sits). That
// makes every dense fold replicable from per-class state:
//
//   row/col sums    one O(N) fold per row class / column class,
//   normalization   raw folds -> max node load -> factor, each stored
//                   value = raw * factor exactly as scale() computes it,
//   sample_dst      a lazily built per-class prefix over the class's
//                   diagonal-less sequence (valid for every row of the
//                   class), plus an ordinal -> column mapping that skips
//                   the row's own diagonal,
//   sample_pair     a lazily built row-end carry chain (N doubles): the
//                   dense global CDF evaluated at each row boundary; a
//                   draw binary-searches the row, then re-simulates that
//                   row's fold to find the exact increase point.
//
// Everything is bit-identical to the dense generators because the folds
// visit the same nonzero values in the same order and exact 0.0 entries
// are no-ops. Construction is O(classes * N); queries materialize no N^2
// state (the pair chain is O(N), class prefixes O(classes * N), both
// lazy).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "topo/clique.h"
#include "topo/hierarchy.h"
#include "traffic/demand_model.h"

namespace sorn {

class ProceduralDemand : public DemandModel {
 public:
  // The block layouts the procedural forms can represent: contiguous
  // equal-sized cliques (CliqueAssignment::contiguous_equal_blocks).
  static bool supports(const CliqueAssignment& cliques);

  // Counterparts of the patterns.h generators, bit-identical to
  // generating dense and normalizing. locality_mix/clique_ring require
  // supports(cliques); clique_ring additionally nc >= 3 (as dense).
  static std::unique_ptr<ProceduralDemand> uniform(NodeId n);
  static std::unique_ptr<ProceduralDemand> locality_mix(
      const CliqueAssignment& cliques, double x);
  static std::unique_ptr<ProceduralDemand> clique_ring(
      const CliqueAssignment& cliques, double x, double heavy_share);
  static std::unique_ptr<ProceduralDemand> hier_locality_mix(
      const Hierarchy& hierarchy, double x1, double x2);

  NodeId node_count() const override { return n_; }
  double at(NodeId src, NodeId dst) const override;
  void for_each_nonzero(const NonzeroVisitor& visit) const override;
  std::size_t nonzero_count() const override;

  double total() const override;
  double row_sum(NodeId src) const override;
  double col_sum(NodeId dst) const override;
  double max_node_load() const override;

  std::pair<NodeId, NodeId> sample_pair(Rng& rng) const override;
  NodeId sample_dst(NodeId src, Rng& rng) const override;

  std::unique_ptr<DemandModel> clone() const override;
  std::size_t memory_bytes() const override;
  DemandBackend backend() const override {
    return DemandBackend::kProcedural;
  }

 private:
  // A constant-value span; value is the post-normalization rate and is
  // never exactly 0 (zero-valued spans are simply not stored — bit-exact
  // no-ops in every dense fold).
  struct Run {
    NodeId begin = 0;
    NodeId end = 0;      // exclusive
    double value = 0.0;  // scaled; `raw` only during construction
  };

  struct ClassSpec {
    std::vector<Run> row_runs;  // column spans, ascending, disjoint
    std::vector<Run> col_runs;  // row spans, ascending, disjoint
    // Index of the run containing the class's diagonal column/row, or -1
    // when the diagonal falls in a zero span. Identical for every member
    // of the class (block layouts put the diagonal in the own-block span).
    int row_diag_run = -1;
    int col_diag_run = -1;
    double row_sum = 0.0;  // scaled diagonal-less fold
    double col_sum = 0.0;
    std::size_t row_seq_len = 0;  // nonzeros per row
    // Lazy per-ordinal prefix of the diagonal-less row sequence (the
    // dense per-row CDF at its increase points); shared by all rows of
    // the class.
    mutable std::vector<double> row_prefix;
  };

  ProceduralDemand(NodeId n, NodeId block_size,
                   std::vector<ClassSpec> classes);

  std::size_t class_of(NodeId node) const {
    return static_cast<std::size_t>(node / block_size_);
  }

  // Fold a class sequence (count per run shortened by one for diag_run),
  // reading Run::value.
  static double fold_runs(const std::vector<Run>& runs, int diag_run);

  // Normalize raw run values in place across all classes, replicating
  // TrafficMatrix::normalize_node_load(1.0), then fill the scaled
  // per-class folds. Called once by every factory.
  void normalize_and_finalize();

  void ensure_pair_chain() const;
  void ensure_row_prefix(const ClassSpec& spec) const;

  NodeId n_ = 1;
  NodeId block_size_ = 1;
  std::vector<ClassSpec> classes_;
  // Lazy sample_pair support: the dense global CDF at each row's end
  // (carry chain across rows), N doubles.
  mutable std::vector<double> row_end_cdf_;
};

}  // namespace sorn
