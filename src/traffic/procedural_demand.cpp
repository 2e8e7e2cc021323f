#include "traffic/procedural_demand.h"

#include <algorithm>

#include "util/assert.h"

namespace sorn {

ProceduralDemand::ProceduralDemand(NodeId n, NodeId block_size,
                                   std::vector<ClassSpec> classes)
    : n_(n), block_size_(block_size), classes_(std::move(classes)) {
  SORN_ASSERT(n >= 1, "procedural demand needs at least one node");
  SORN_ASSERT(block_size >= 1 && n % block_size == 0,
              "procedural demand needs equal contiguous blocks");
  SORN_ASSERT(classes_.size() ==
                  static_cast<std::size_t>(n / block_size),
              "one class per block required");
}

bool ProceduralDemand::supports(const CliqueAssignment& cliques) {
  return cliques.contiguous_equal_blocks();
}

double ProceduralDemand::fold_runs(const std::vector<Run>& runs,
                                   int diag_run) {
  double acc = 0.0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    auto count = static_cast<std::size_t>(runs[r].end - runs[r].begin);
    if (static_cast<int>(r) == diag_run) --count;
    for (std::size_t k = 0; k < count; ++k) acc += runs[r].value;
  }
  return acc;
}

void ProceduralDemand::normalize_and_finalize() {
  // Replicate TrafficMatrix::normalize_node_load(1.0): fold raw row and
  // column sums (zeros and the diagonal are no-ops), take the max over
  // nodes in node order, scale by 1/load. Stored values then equal the
  // dense `d *= factor` results bit-for-bit.
  std::vector<double> raw_row(classes_.size(), 0.0);
  std::vector<double> raw_col(classes_.size(), 0.0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    raw_row[c] = fold_runs(classes_[c].row_runs, classes_[c].row_diag_run);
    raw_col[c] = fold_runs(classes_[c].col_runs, classes_[c].col_diag_run);
  }
  double load = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    load = std::max({load, raw_row[class_of(i)], raw_col[class_of(i)]});
  }
  if (load > 0.0) {
    const double factor = 1.0 / load;
    for (auto& spec : classes_) {
      for (auto& run : spec.row_runs) run.value *= factor;
      for (auto& run : spec.col_runs) run.value *= factor;
    }
  }
  for (auto& spec : classes_) {
    spec.row_sum = fold_runs(spec.row_runs, spec.row_diag_run);
    spec.col_sum = fold_runs(spec.col_runs, spec.col_diag_run);
    spec.row_seq_len = 0;
    for (std::size_t r = 0; r < spec.row_runs.size(); ++r) {
      spec.row_seq_len +=
          static_cast<std::size_t>(spec.row_runs[r].end -
                                   spec.row_runs[r].begin) -
          (static_cast<int>(r) == spec.row_diag_run ? 1u : 0u);
    }
  }
}

// ------------------------------------------------------------- factories

std::unique_ptr<ProceduralDemand> ProceduralDemand::uniform(NodeId n) {
  SORN_ASSERT(n >= 1, "procedural demand needs at least one node");
  ClassSpec spec;
  if (n >= 2) {
    spec.row_runs.push_back({0, n, 1.0});
    spec.col_runs.push_back({0, n, 1.0});
    spec.row_diag_run = 0;
    spec.col_diag_run = 0;
  }
  std::vector<ClassSpec> classes;
  classes.push_back(std::move(spec));
  auto out = std::unique_ptr<ProceduralDemand>(
      new ProceduralDemand(n, n, std::move(classes)));
  out->normalize_and_finalize();
  return out;
}

std::unique_ptr<ProceduralDemand> ProceduralDemand::locality_mix(
    const CliqueAssignment& cliques, double x) {
  SORN_ASSERT(x >= 0.0 && x <= 1.0, "locality ratio must be in [0,1]");
  SORN_ASSERT(supports(cliques),
              "procedural locality_mix needs contiguous equal blocks");
  const NodeId n = cliques.node_count();
  const auto nc = static_cast<std::size_t>(cliques.clique_count());
  const NodeId s = cliques.clique_size(0);
  const NodeId in_clique = s - 1;
  const NodeId out_clique = n - s;
  const double intra_share = in_clique > 0 ? x : 0.0;
  const double inter_share = out_clique > 0 ? 1.0 - intra_share : 0.0;
  const double intra =
      in_clique > 0 ? intra_share / static_cast<double>(in_clique) : 0.0;
  const double inter =
      out_clique > 0 ? inter_share / static_cast<double>(out_clique) : 0.0;

  std::vector<ClassSpec> classes(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    const NodeId lo = static_cast<NodeId>(c) * s;
    const NodeId hi = lo + s;
    auto emit = [&](std::vector<Run>& runs, int& diag_run) {
      if (lo > 0 && inter != 0.0) runs.push_back({0, lo, inter});
      if (s >= 2 && intra != 0.0) {
        diag_run = static_cast<int>(runs.size());
        runs.push_back({lo, hi, intra});
      }
      if (hi < n && inter != 0.0) runs.push_back({hi, n, inter});
    };
    emit(classes[c].row_runs, classes[c].row_diag_run);
    emit(classes[c].col_runs, classes[c].col_diag_run);
  }
  auto out = std::unique_ptr<ProceduralDemand>(
      new ProceduralDemand(n, s, std::move(classes)));
  out->normalize_and_finalize();
  return out;
}

std::unique_ptr<ProceduralDemand> ProceduralDemand::clique_ring(
    const CliqueAssignment& cliques, double x, double heavy_share) {
  SORN_ASSERT(x >= 0.0 && x < 1.0, "locality must be in [0,1)");
  SORN_ASSERT(heavy_share >= 0.0 && heavy_share <= 1.0,
              "heavy share must be in [0,1]");
  SORN_ASSERT(supports(cliques),
              "procedural clique_ring needs contiguous equal blocks");
  const NodeId n = cliques.node_count();
  const auto nc = cliques.clique_count();
  SORN_ASSERT(nc >= 3, "clique_ring needs at least three cliques");
  const NodeId s = cliques.clique_size(0);

  const double intra = s >= 2 ? x / static_cast<double>(s - 1) : 0.0;
  const double inter = s >= 2 ? 1.0 - x : 1.0;
  const double heavy = inter * heavy_share / static_cast<double>(s);
  const double rest = inter * (1.0 - heavy_share);
  const double per_node = rest / static_cast<double>((nc - 2) * s);

  std::vector<ClassSpec> classes(static_cast<std::size_t>(nc));
  for (CliqueId c = 0; c < nc; ++c) {
    auto& spec = classes[static_cast<std::size_t>(c)];
    const auto next = static_cast<CliqueId>((c + 1) % nc);
    const auto prev = static_cast<CliqueId>((c + nc - 1) % nc);
    // Row runs: columns ascending over cliques; value by the receiver's
    // relation to c. Col runs: rows ascending; value by the sender's
    // relation (sender==c intra, sender==prev heavy, else spread).
    for (CliqueId other = 0; other < nc; ++other) {
      const NodeId lo = other * s;
      const NodeId hi = lo + s;
      const double row_v =
          other == c ? intra : (other == next ? heavy : per_node);
      const double col_v =
          other == c ? intra : (other == prev ? heavy : per_node);
      if (row_v != 0.0) {
        if (other == c) spec.row_diag_run = static_cast<int>(
            spec.row_runs.size());
        spec.row_runs.push_back({lo, hi, row_v});
      }
      if (col_v != 0.0) {
        if (other == c) spec.col_diag_run = static_cast<int>(
            spec.col_runs.size());
        spec.col_runs.push_back({lo, hi, col_v});
      }
    }
  }
  auto out = std::unique_ptr<ProceduralDemand>(
      new ProceduralDemand(n, s, std::move(classes)));
  out->normalize_and_finalize();
  return out;
}

std::unique_ptr<ProceduralDemand> ProceduralDemand::hier_locality_mix(
    const Hierarchy& h, double x1, double x2) {
  SORN_ASSERT(x1 >= 0.0 && x2 >= 0.0 && x1 + x2 <= 1.0 + 1e-12,
              "locality shares must be a sub-distribution");
  const NodeId n = h.node_count();
  const NodeId ps = h.pod_size();
  const NodeId cs = h.cluster_size();
  const NodeId pod_peers = ps - 1;
  const NodeId cluster_peers = cs - ps;
  const NodeId global_peers = n - cs;
  const double pod_share = pod_peers > 0 ? x1 : 0.0;
  const double cluster_share = cluster_peers > 0 ? x2 : 0.0;
  double global_share =
      global_peers > 0 ? 1.0 - pod_share - cluster_share : 0.0;
  if (global_share < 0.0) global_share = 0.0;
  const double pod_v =
      pod_peers > 0 ? pod_share / static_cast<double>(pod_peers) : 0.0;
  const double cluster_v =
      cluster_peers > 0 ? cluster_share / static_cast<double>(cluster_peers)
                        : 0.0;
  const double global_v =
      global_peers > 0 ? global_share / static_cast<double>(global_peers)
                       : 0.0;

  const auto pods = static_cast<std::size_t>(n / ps);
  std::vector<ClassSpec> classes(pods);
  for (std::size_t p = 0; p < pods; ++p) {
    auto& spec = classes[p];
    const NodeId pod_lo = static_cast<NodeId>(p) * ps;
    const NodeId pod_hi = pod_lo + ps;
    const NodeId cluster_lo = (pod_lo / cs) * cs;
    const NodeId cluster_hi = cluster_lo + cs;
    // The values are symmetric in (i, j) — same_pod/same_cluster are —
    // so column runs equal row runs.
    auto emit = [&](std::vector<Run>& runs, int& diag_run) {
      if (cluster_lo > 0 && global_v != 0.0)
        runs.push_back({0, cluster_lo, global_v});
      if (pod_lo > cluster_lo && cluster_v != 0.0)
        runs.push_back({cluster_lo, pod_lo, cluster_v});
      if (ps >= 2 && pod_v != 0.0) {
        diag_run = static_cast<int>(runs.size());
        runs.push_back({pod_lo, pod_hi, pod_v});
      }
      if (cluster_hi > pod_hi && cluster_v != 0.0)
        runs.push_back({pod_hi, cluster_hi, cluster_v});
      if (cluster_hi < n && global_v != 0.0)
        runs.push_back({cluster_hi, n, global_v});
    };
    emit(spec.row_runs, spec.row_diag_run);
    emit(spec.col_runs, spec.col_diag_run);
  }
  auto out = std::unique_ptr<ProceduralDemand>(
      new ProceduralDemand(n, ps, std::move(classes)));
  out->normalize_and_finalize();
  return out;
}

// ---------------------------------------------------------------- queries

double ProceduralDemand::at(NodeId src, NodeId dst) const {
  if (src == dst) return 0.0;
  const auto& runs = classes_[class_of(src)].row_runs;
  // Last run with begin <= dst.
  const auto it = std::upper_bound(
      runs.begin(), runs.end(), dst,
      [](NodeId j, const Run& run) { return j < run.begin; });
  if (it == runs.begin()) return 0.0;
  const Run& run = *(it - 1);
  return dst < run.end ? run.value : 0.0;
}

void ProceduralDemand::for_each_nonzero(const NonzeroVisitor& visit) const {
  for (NodeId i = 0; i < n_; ++i) {
    for (const Run& run : classes_[class_of(i)].row_runs) {
      for (NodeId j = run.begin; j < run.end; ++j) {
        if (j != i) visit(i, j, run.value);
      }
    }
  }
}

std::size_t ProceduralDemand::nonzero_count() const {
  std::size_t count = 0;
  for (NodeId i = 0; i < n_; ++i) count += classes_[class_of(i)].row_seq_len;
  return count;
}

double ProceduralDemand::row_sum(NodeId src) const {
  return classes_[class_of(src)].row_sum;
}

double ProceduralDemand::col_sum(NodeId dst) const {
  return classes_[class_of(dst)].col_sum;
}

double ProceduralDemand::max_node_load() const {
  double worst = 0.0;
  for (NodeId i = 0; i < n_; ++i)
    worst = std::max({worst, row_sum(i), col_sum(i)});
  return worst;
}

void ProceduralDemand::ensure_pair_chain() const {
  if (!row_end_cdf_.empty()) return;
  // The dense global CDF evaluated at each row's last column. Carrying the
  // accumulator across rows (rather than summing row_sums) keeps every
  // intermediate rounding identical to the dense fold.
  row_end_cdf_.resize(static_cast<std::size_t>(n_));
  double acc = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    for (const Run& run : classes_[class_of(i)].row_runs) {
      auto count = static_cast<std::size_t>(run.end - run.begin);
      if (run.begin <= i && i < run.end) --count;
      for (std::size_t k = 0; k < count; ++k) acc += run.value;
    }
    row_end_cdf_[static_cast<std::size_t>(i)] = acc;
  }
}

double ProceduralDemand::total() const {
  ensure_pair_chain();
  return row_end_cdf_.back();
}

std::pair<NodeId, NodeId> ProceduralDemand::sample_pair(Rng& rng) const {
  ensure_pair_chain();
  const double total_demand = row_end_cdf_.back();
  SORN_ASSERT(total_demand > 0.0, "cannot sample from an empty matrix");
  const double u = rng.next_double() * total_demand;
  const auto it =
      std::upper_bound(row_end_cdf_.begin(), row_end_cdf_.end(), u);
  if (it == row_end_cdf_.end()) {
    // Dense clamp: u >= total lands on linear index N*N-1 = (n-1, n-1).
    return {n_ - 1, n_ - 1};
  }
  const auto row = static_cast<NodeId>(it - row_end_cdf_.begin());
  // Re-simulate the row's fold from the carried-in accumulator; the first
  // strictly-greater partial sum is exactly where dense upper_bound lands
  // (zeros never increase the CDF).
  double acc = row > 0 ? row_end_cdf_[static_cast<std::size_t>(row) - 1]
                       : 0.0;
  for (const Run& run : classes_[class_of(row)].row_runs) {
    for (NodeId j = run.begin; j < run.end; ++j) {
      if (j == row) continue;
      acc += run.value;
      if (acc > u) return {row, j};
    }
  }
  return {row, n_ - 1};  // unreachable: row_end_cdf_[row] > u
}

void ProceduralDemand::ensure_row_prefix(const ClassSpec& spec) const {
  if (!spec.row_prefix.empty() || spec.row_seq_len == 0) return;
  // Diagonal-less value sequence of any row of the class: dropping one
  // element from a constant run yields the same list wherever the
  // diagonal sits, so one prefix serves every member row.
  spec.row_prefix.reserve(spec.row_seq_len);
  double acc = 0.0;
  for (std::size_t r = 0; r < spec.row_runs.size(); ++r) {
    const Run& run = spec.row_runs[r];
    auto count = static_cast<std::size_t>(run.end - run.begin);
    if (static_cast<int>(r) == spec.row_diag_run) --count;
    for (std::size_t k = 0; k < count; ++k) {
      acc += run.value;
      spec.row_prefix.push_back(acc);
    }
  }
}

NodeId ProceduralDemand::sample_dst(NodeId src, Rng& rng) const {
  const ClassSpec& spec = classes_[class_of(src)];
  ensure_row_prefix(spec);
  const double u = rng.next_double() * spec.row_sum;
  const auto it =
      std::upper_bound(spec.row_prefix.begin(), spec.row_prefix.end(), u);
  auto m = static_cast<std::size_t>(it - spec.row_prefix.begin());
  if (m >= spec.row_seq_len) return n_ - 1;  // dense clamp: column n-1
  // Map the m-th nonzero ordinal to its column, shifting past the row's
  // own diagonal inside the diagonal run.
  for (std::size_t r = 0; r < spec.row_runs.size(); ++r) {
    const Run& run = spec.row_runs[r];
    const auto len = static_cast<std::size_t>(run.end - run.begin);
    const bool has_diag = static_cast<int>(r) == spec.row_diag_run;
    const auto count = len - (has_diag ? 1u : 0u);
    if (m < count) {
      if (has_diag) {
        const auto p = static_cast<std::size_t>(src - run.begin);
        return run.begin + static_cast<NodeId>(m + (m >= p ? 1 : 0));
      }
      return run.begin + static_cast<NodeId>(m);
    }
    m -= count;
  }
  return n_ - 1;  // unreachable
}

std::unique_ptr<DemandModel> ProceduralDemand::clone() const {
  return std::unique_ptr<ProceduralDemand>(new ProceduralDemand(*this));
}

std::size_t ProceduralDemand::memory_bytes() const {
  std::size_t bytes = row_end_cdf_.capacity() * sizeof(double);
  for (const auto& spec : classes_) {
    bytes += (spec.row_runs.capacity() + spec.col_runs.capacity()) *
                 sizeof(Run) +
             spec.row_prefix.capacity() * sizeof(double) + sizeof(ClassSpec);
  }
  return bytes;
}

}  // namespace sorn
