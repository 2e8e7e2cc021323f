#include "control/clustering.h"

#include <algorithm>
#include <vector>

#include "util/assert.h"

namespace sorn {

// IEEE addition is commutative and adding to a 0.0 cell is exact, so each
// cell is bit-identical to at(i, j) + at(j, i).
AffinityMatrix::AffinityMatrix(const DemandModel& tm)
    : n_(tm.node_count()),
      cells_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
             0.0) {
  const auto n = static_cast<std::size_t>(n_);
  tm.for_each_nonzero([this, n](NodeId i, NodeId j, double d) {
    cells_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] += d;
    cells_[static_cast<std::size_t>(j) * n + static_cast<std::size_t>(i)] += d;
  });
}

CliqueClusterer::CliqueClusterer(Options options) : options_(options) {}

double CliqueClusterer::objective(const DemandModel& tm,
                                  const CliqueAssignment& cliques) {
  return tm.locality_ratio(cliques);
}

CliqueAssignment CliqueClusterer::cluster(const DemandModel& tm,
                                          CliqueId nc) const {
  return cluster(AffinityMatrix(tm), nc);
}

// Every sum below is folded in the order of the plain O(N^2 * size)-per-
// pass formulation (row sums j-ascending, a node's affinity to a clique in
// member order starting from 0.0), so each comparison sees the same bits
// and every decision, tie-breaks included, is unchanged.
CliqueAssignment CliqueClusterer::cluster(const AffinityMatrix& affinity,
                                          CliqueId nc) const {
  const NodeId n = affinity.node_count();
  SORN_ASSERT(nc >= 1 && n % nc == 0,
              "node count must divide into nc equal cliques");
  const NodeId size = n / nc;
  const auto un = static_cast<std::size_t>(n);

  // Each node's total affinity, folded once: seeds are picked from it.
  std::vector<double> row_sum(un);
  for (NodeId i = 0; i < n; ++i) {
    const double* row = affinity.row(i);
    double w = 0.0;
    for (NodeId j = 0; j < n; ++j) w += row[j];
    row_sum[static_cast<std::size_t>(i)] = w;
  }

  // Greedy growth: seed each clique with the heaviest unassigned node,
  // then repeatedly add the unassigned node with the highest affinity to
  // the clique's current members. gain[i] is that affinity, grown by one
  // member's row per add (row(m)[i] is aff(i, m): the matrix is symmetric).
  std::vector<CliqueId> assign(un, -1);
  std::vector<double> gain(un);
  for (CliqueId c = 0; c < nc; ++c) {
    NodeId member = kNoNode;
    double best_weight = -1.0;
    for (NodeId i = 0; i < n; ++i) {
      if (assign[static_cast<std::size_t>(i)] >= 0) continue;
      if (row_sum[static_cast<std::size_t>(i)] > best_weight) {
        best_weight = row_sum[static_cast<std::size_t>(i)];
        member = i;
      }
    }
    std::fill(gain.begin(), gain.end(), 0.0);
    for (NodeId added = 1;; ++added) {
      assign[static_cast<std::size_t>(member)] = c;
      if (added == size) break;
      const double* row = affinity.row(member);
      for (std::size_t i = 0; i < un; ++i) gain[i] += row[i];
      double best_gain = -1.0;
      for (NodeId i = 0; i < n; ++i) {
        if (assign[static_cast<std::size_t>(i)] >= 0) continue;
        if (gain[static_cast<std::size_t>(i)] > best_gain) {
          best_gain = gain[static_cast<std::size_t>(i)];
          member = i;
        }
      }
    }
  }

  // Pairwise swap refinement: exchange nodes across cliques while it
  // improves total intra-clique affinity. Gain of swapping i <-> j
  // (different cliques): both lose affinity to their old clique-mates and
  // gain the other's (excluding the pair itself, which stays inter).
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(nc));
  for (NodeId i = 0; i < n; ++i)
    members[static_cast<std::size_t>(assign[static_cast<std::size_t>(i)])]
        .push_back(i);
  // table[c * n + k]: k's affinity to clique c's members other than k,
  // summed in members[c] order. A swap changes two cliques' member lists,
  // so it refolds just those two columns.
  std::vector<double> table(static_cast<std::size_t>(nc) * un);
  auto fold_column = [&](CliqueId c) {
    double* col = table.data() + static_cast<std::size_t>(c) * un;
    std::fill(col, col + un, 0.0);
    for (const NodeId m : members[static_cast<std::size_t>(c)]) {
      const double* row = affinity.row(m);
      const auto um = static_cast<std::size_t>(m);
      for (std::size_t k = 0; k < um; ++k) col[k] += row[k];
      for (std::size_t k = um + 1; k < un; ++k) col[k] += row[k];
    }
  };
  auto at = [&](CliqueId c, NodeId k) {
    return table[static_cast<std::size_t>(c) * un +
                 static_cast<std::size_t>(k)];
  };
  for (CliqueId c = 0; c < nc; ++c) fold_column(c);
  for (int pass = 0; pass < options_.refine_passes; ++pass) {
    bool improved = false;
    for (NodeId i = 0; i < n; ++i) {
      const double* row_i = affinity.row(i);
      for (NodeId j = i + 1; j < n; ++j) {
        const CliqueId ci = assign[static_cast<std::size_t>(i)];
        const CliqueId cj = assign[static_cast<std::size_t>(j)];
        if (ci == cj) continue;
        const double before = at(ci, i) + at(cj, j);
        const double after =
            at(cj, i) + at(ci, j) - 2.0 * row_i[static_cast<std::size_t>(j)];
        if (after > before + 1e-12) {
          auto& mi = members[static_cast<std::size_t>(ci)];
          auto& mj = members[static_cast<std::size_t>(cj)];
          *std::find(mi.begin(), mi.end(), i) = j;
          *std::find(mj.begin(), mj.end(), j) = i;
          std::swap(assign[static_cast<std::size_t>(i)],
                    assign[static_cast<std::size_t>(j)]);
          fold_column(ci);
          fold_column(cj);
          improved = true;
        }
      }
    }
    if (!improved) break;
  }

  return CliqueAssignment(std::move(assign));
}

}  // namespace sorn
