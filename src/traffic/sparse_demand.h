// SparseDemand: CSR demand backend with O(nnz) statistics and sampling.
//
// Stores only the nonzero entries, row-major with columns ascending, plus
// two prefix-sum arrays over the nonzeros, each built on the first draw
// that needs it (an estimate that is only folded, never sampled, skips
// both: 16 bytes per nonzero):
//
//   pair_cdf_  one continuous fold across the whole matrix (the dense
//              sample_pair CDF restricted to its increase points), and
//   row_cdf_   per-row folds restarting at zero (the dense per-row
//              sample_dst CDFs restricted to their increase points).
//
// Byte-identity with the dense backend falls out of fold-order
// preservation: every statistic folds the same nonzero values in the same
// order the dense loops visit them, and skipping the exact-0.0 entries is
// a bit-exact no-op. Sampling identity: std::upper_bound on a dense CDF
// can only land on an index where the CDF strictly increased — a nonzero
// entry — except the u >= total clamp, which both backends map to the last
// linear index (n-1, n-1) / column n-1 explicitly.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "traffic/demand_model.h"

namespace sorn {

class SparseDemand : public DemandModel {
 public:
  // Row-major construction sink for the pattern generators: set() rows in
  // nondecreasing row order (any column order within a row; a dense
  // N-sized row buffer absorbs the order), then build(). max_nonzeros, an
  // upper bound on the nonzeros set, sizes the buffers once. With normalize
  // true the build replicates TrafficMatrix::normalize_node_load(1.0)
  // bit-for-bit (raw folds including zeros, factor = 1/max_node_load,
  // each stored value = raw * factor).
  class Builder {
   public:
    explicit Builder(NodeId n, std::size_t max_nonzeros = 0);
    void set(NodeId src, NodeId dst, double rate);
    std::unique_ptr<SparseDemand> build(bool normalize_node_load);

   private:
    void flush_row();

    NodeId n_;
    NodeId current_row_ = 0;
    std::vector<double> row_buffer_;
    std::vector<NodeId> row_ptr_rows_;  // nonzeros-per-row, running
    std::vector<NodeId> cols_;
    std::vector<double> vals_;
  };

  // Compact any model into CSR by visiting its nonzeros (row-major).
  // With normalize true the copy is normalized to unit peak node load,
  // replicating the dense observe() path of the estimator.
  static std::unique_ptr<SparseDemand> from_model(const DemandModel& model,
                                                  bool normalize = false);

  // Build from row-major sorted, duplicate-free COO triplets (rows
  // ascending, columns ascending within a row, no diagonal entries,
  // nonnegative values). Used by the estimator's sparse-delta merge.
  SparseDemand(NodeId n, std::vector<NodeId> coo_row,
               std::vector<NodeId> coo_col, std::vector<double> coo_val);

  NodeId node_count() const override { return n_; }
  double at(NodeId src, NodeId dst) const override;
  void for_each_nonzero(const NonzeroVisitor& visit) const override;

  double total() const override { return total_; }
  double row_sum(NodeId src) const override {
    return row_sums_[static_cast<std::size_t>(src)];
  }
  double col_sum(NodeId dst) const override {
    return col_sums_[static_cast<std::size_t>(dst)];
  }
  double max_node_load() const override;

  std::pair<NodeId, NodeId> sample_pair(Rng& rng) const override;
  NodeId sample_dst(NodeId src, Rng& rng) const override;

  std::unique_ptr<DemandModel> clone() const override;
  std::size_t memory_bytes() const override;
  DemandBackend backend() const override { return DemandBackend::kSparse; }

  std::size_t nonzero_count() const override { return vals_.size(); }

 private:
  SparseDemand(NodeId n) : n_(n) {}

  // Recompute row/col sums and the total from row_ptr_, cols_, vals_
  // (called once after construction).
  void finalize();
  // Fill a CDF on first use; both fold exactly as finalize() folds the
  // total and the row sums.
  void ensure_pair_cdf() const;
  void ensure_row_cdf() const;

  NodeId n_ = 1;
  std::vector<std::size_t> row_ptr_;  // n_ + 1
  std::vector<NodeId> cols_;
  std::vector<double> vals_;
  std::vector<double> row_sums_;
  std::vector<double> col_sums_;
  mutable std::vector<double> pair_cdf_;  // continuous fold, aligned with vals_
  mutable std::vector<double> row_cdf_;   // per-row folds, aligned with vals_
  double total_ = 0.0;
};

}  // namespace sorn
