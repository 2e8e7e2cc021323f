#include "traffic/sparse_demand.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

// ---------------------------------------------------------------- Builder

SparseDemand::Builder::Builder(NodeId n, std::size_t max_nonzeros) : n_(n) {
  SORN_ASSERT(n >= 1, "sparse demand needs at least one node");
  row_buffer_.assign(static_cast<std::size_t>(n), 0.0);
  row_ptr_rows_.reserve(static_cast<std::size_t>(n));
  cols_.reserve(max_nonzeros);
  vals_.reserve(max_nonzeros);
}

void SparseDemand::Builder::set(NodeId src, NodeId dst, double rate) {
  SORN_ASSERT(rate >= 0.0, "demand must be nonnegative");
  SORN_ASSERT(src >= current_row_,
              "sparse builder rows must be written in nondecreasing order");
  while (current_row_ < src) flush_row();
  if (src != dst) row_buffer_[static_cast<std::size_t>(dst)] = rate;
}

void SparseDemand::Builder::flush_row() {
  NodeId nnz = 0;
  for (NodeId j = 0; j < n_; ++j) {
    const double v = row_buffer_[static_cast<std::size_t>(j)];
    if (v != 0.0) {
      cols_.push_back(j);
      vals_.push_back(v);
      ++nnz;
    }
    row_buffer_[static_cast<std::size_t>(j)] = 0.0;
  }
  row_ptr_rows_.push_back(nnz);
  ++current_row_;
}

std::unique_ptr<SparseDemand> SparseDemand::Builder::build(
    bool normalize_node_load) {
  while (current_row_ < n_) flush_row();

  auto out = std::unique_ptr<SparseDemand>(new SparseDemand(n_));
  out->row_ptr_.resize(static_cast<std::size_t>(n_) + 1, 0);
  for (NodeId i = 0; i < n_; ++i) {
    out->row_ptr_[static_cast<std::size_t>(i) + 1] =
        out->row_ptr_[static_cast<std::size_t>(i)] +
        static_cast<std::size_t>(row_ptr_rows_[static_cast<std::size_t>(i)]);
  }
  out->cols_ = std::move(cols_);
  out->vals_ = std::move(vals_);

  if (normalize_node_load) {
    // Replicate TrafficMatrix::normalize_node_load(1.0): raw row folds
    // (columns ascending) and raw column folds (rows ascending, realized
    // by accumulating row-major), max across nodes, then scale every
    // stored value by 1/load. Skipped zeros are bit-exact no-ops in the
    // dense folds, so these O(nnz) folds produce the same bits.
    std::vector<double> row_fold(static_cast<std::size_t>(n_), 0.0);
    std::vector<double> col_fold(static_cast<std::size_t>(n_), 0.0);
    for (NodeId i = 0; i < n_; ++i) {
      double acc = 0.0;
      for (std::size_t m = out->row_ptr_[static_cast<std::size_t>(i)];
           m < out->row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
        acc += out->vals_[m];
        col_fold[static_cast<std::size_t>(out->cols_[m])] += out->vals_[m];
      }
      row_fold[static_cast<std::size_t>(i)] = acc;
    }
    double load = 0.0;
    for (NodeId i = 0; i < n_; ++i) {
      load = std::max({load, row_fold[static_cast<std::size_t>(i)],
                       col_fold[static_cast<std::size_t>(i)]});
    }
    if (load > 0.0) {
      const double factor = 1.0 / load;
      for (double& v : out->vals_) v *= factor;
    }
  }

  out->finalize();
  return out;
}

// ----------------------------------------------------------- construction

std::unique_ptr<SparseDemand> SparseDemand::from_model(
    const DemandModel& model, bool normalize) {
  Builder builder(model.node_count(), model.nonzero_count());
  model.for_each_nonzero(
      [&builder](NodeId i, NodeId j, double d) { builder.set(i, j, d); });
  return builder.build(normalize);
}

SparseDemand::SparseDemand(NodeId n, std::vector<NodeId> coo_row,
                           std::vector<NodeId> coo_col,
                           std::vector<double> coo_val)
    : n_(n) {
  SORN_ASSERT(n >= 1, "sparse demand needs at least one node");
  SORN_ASSERT(coo_row.size() == coo_col.size() &&
                  coo_row.size() == coo_val.size(),
              "COO arrays must be parallel");
  row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  cols_ = std::move(coo_col);
  vals_ = std::move(coo_val);
  NodeId prev_row = 0;
  NodeId prev_col = -1;
  for (std::size_t m = 0; m < coo_row.size(); ++m) {
    const NodeId r = coo_row[m];
    SORN_ASSERT(r >= prev_row, "COO rows must be sorted ascending");
    SORN_ASSERT(r != cols_[m], "diagonal demand is invalid");
    SORN_ASSERT(vals_[m] >= 0.0, "demand must be nonnegative");
    if (r != prev_row) prev_col = -1;
    SORN_ASSERT(cols_[m] > prev_col,
                "COO columns must be strictly ascending within a row");
    prev_row = r;
    prev_col = cols_[m];
    ++row_ptr_[static_cast<std::size_t>(r) + 1];
  }
  for (NodeId i = 0; i < n_; ++i) {
    row_ptr_[static_cast<std::size_t>(i) + 1] +=
        row_ptr_[static_cast<std::size_t>(i)];
  }
  finalize();
}

void SparseDemand::finalize() {
  row_sums_.assign(static_cast<std::size_t>(n_), 0.0);
  col_sums_.assign(static_cast<std::size_t>(n_), 0.0);
  double acc = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    double row_acc = 0.0;
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      const double v = vals_[m];
      acc += v;
      row_acc += v;
      col_sums_[static_cast<std::size_t>(cols_[m])] += v;
    }
    row_sums_[static_cast<std::size_t>(i)] = row_acc;
  }
  total_ = acc;
}

void SparseDemand::ensure_pair_cdf() const {
  if (pair_cdf_.size() == vals_.size()) return;
  pair_cdf_.resize(vals_.size());
  double acc = 0.0;
  for (std::size_t m = 0; m < vals_.size(); ++m) {
    acc += vals_[m];
    pair_cdf_[m] = acc;
  }
}

void SparseDemand::ensure_row_cdf() const {
  if (row_cdf_.size() == vals_.size()) return;
  row_cdf_.resize(vals_.size());
  for (NodeId i = 0; i < n_; ++i) {
    double row_acc = 0.0;
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      row_acc += vals_[m];
      row_cdf_[m] = row_acc;
    }
  }
}

// ---------------------------------------------------------------- queries

double SparseDemand::at(NodeId src, NodeId dst) const {
  const auto begin = cols_.begin() +
                     static_cast<std::ptrdiff_t>(
                         row_ptr_[static_cast<std::size_t>(src)]);
  const auto end = cols_.begin() +
                   static_cast<std::ptrdiff_t>(
                       row_ptr_[static_cast<std::size_t>(src) + 1]);
  const auto it = std::lower_bound(begin, end, dst);
  if (it == end || *it != dst) return 0.0;
  return vals_[static_cast<std::size_t>(it - cols_.begin())];
}

void SparseDemand::for_each_nonzero(const NonzeroVisitor& visit) const {
  for (NodeId i = 0; i < n_; ++i) {
    for (std::size_t m = row_ptr_[static_cast<std::size_t>(i)];
         m < row_ptr_[static_cast<std::size_t>(i) + 1]; ++m) {
      if (vals_[m] != 0.0) visit(i, cols_[m], vals_[m]);
    }
  }
}

double SparseDemand::max_node_load() const {
  double worst = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    worst = std::max({worst, row_sums_[static_cast<std::size_t>(i)],
                      col_sums_[static_cast<std::size_t>(i)]});
  }
  return worst;
}

std::pair<NodeId, NodeId> SparseDemand::sample_pair(Rng& rng) const {
  SORN_ASSERT(total_ > 0.0, "cannot sample from an empty matrix");
  ensure_pair_cdf();
  const double u = rng.next_double() * total_;
  const auto it = std::upper_bound(pair_cdf_.begin(), pair_cdf_.end(), u);
  if (it == pair_cdf_.end()) {
    // Dense clamp: u >= total lands on the last linear index (n-1, n-1).
    return {n_ - 1, n_ - 1};
  }
  const auto m = static_cast<std::size_t>(it - pair_cdf_.begin());
  const auto row_it =
      std::upper_bound(row_ptr_.begin(), row_ptr_.end(), m);
  const auto row = static_cast<NodeId>(row_it - row_ptr_.begin() - 1);
  return {row, cols_[m]};
}

NodeId SparseDemand::sample_dst(NodeId src, Rng& rng) const {
  ensure_row_cdf();
  const double row_total = row_sums_[static_cast<std::size_t>(src)];
  const double u = rng.next_double() * row_total;
  const auto begin = row_cdf_.begin() +
                     static_cast<std::ptrdiff_t>(
                         row_ptr_[static_cast<std::size_t>(src)]);
  const auto end = row_cdf_.begin() +
                   static_cast<std::ptrdiff_t>(
                       row_ptr_[static_cast<std::size_t>(src) + 1]);
  const auto it = std::upper_bound(begin, end, u);
  if (it == end) return n_ - 1;  // dense clamp: column n-1
  return cols_[static_cast<std::size_t>(it - row_cdf_.begin())];
}

std::unique_ptr<DemandModel> SparseDemand::clone() const {
  return std::unique_ptr<SparseDemand>(new SparseDemand(*this));
}

std::size_t SparseDemand::memory_bytes() const {
  return row_ptr_.capacity() * sizeof(std::size_t) +
         cols_.capacity() * sizeof(NodeId) +
         (vals_.capacity() + row_sums_.capacity() + col_sums_.capacity() +
          pair_cdf_.capacity() + row_cdf_.capacity()) *
             sizeof(double);
}

}  // namespace sorn
