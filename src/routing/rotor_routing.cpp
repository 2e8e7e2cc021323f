#include "routing/rotor_routing.h"

#include <algorithm>
#include <queue>

#include "util/assert.h"

namespace sorn {

RotorRouter::RotorRouter(const CircuitSchedule* schedule, int lanes,
                         int max_hops)
    : schedule_(schedule), lanes_(lanes), max_hops_(max_hops) {
  SORN_ASSERT(schedule_ != nullptr, "rotor router needs a schedule");
  SORN_ASSERT(lanes_ >= 1, "need at least one lane");
  SORN_ASSERT(max_hops_ >= 1 && max_hops_ <= Path::kMaxNodes - 1,
              "hop budget out of range");
}

std::vector<NodeId> RotorRouter::active_neighbors(NodeId node,
                                                  Slot now) const {
  std::vector<NodeId> nbrs;
  nbrs.reserve(static_cast<std::size_t>(lanes_));
  for (int lane = 0; lane < lanes_; ++lane) {
    const Slot t = now + lane_phase(schedule_->period(), lanes_, lane);
    const NodeId peer = schedule_->dst_of(node, t);
    if (peer != node &&
        std::find(nbrs.begin(), nbrs.end(), peer) == nbrs.end())
      nbrs.push_back(peer);
  }
  return nbrs;
}

Path RotorRouter::route(NodeId src, NodeId dst, Slot now, Rng& /*rng*/) const {
  SORN_ASSERT(src != dst, "cannot route a node to itself");
  // BFS over the active union.
  const NodeId n = schedule_->node_count();
  std::vector<NodeId> parent(static_cast<std::size_t>(n), kNoNode);
  std::vector<int> depth(static_cast<std::size_t>(n), 0);
  std::queue<NodeId> frontier;
  frontier.push(src);
  parent[static_cast<std::size_t>(src)] = src;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (depth[static_cast<std::size_t>(u)] >= max_hops_) continue;
    for (const NodeId v : active_neighbors(u, now)) {
      if (parent[static_cast<std::size_t>(v)] != kNoNode) continue;
      parent[static_cast<std::size_t>(v)] = u;
      depth[static_cast<std::size_t>(v)] = depth[static_cast<std::size_t>(u)] + 1;
      if (v == dst) {
        std::vector<NodeId> rev{dst};
        for (NodeId w = dst; w != src;
             w = parent[static_cast<std::size_t>(w)])
          rev.push_back(parent[static_cast<std::size_t>(w)]);
        Path path;
        for (auto it = rev.rbegin(); it != rev.rend(); ++it)
          path.push_back(*it);
        return path;
      }
      frontier.push(v);
    }
  }
  // Unreachable within the budget in this window: fall back to the direct
  // circuit (the flow waits for the rotation, like bulk).
  return Path::of({src, dst});
}

double RotorRouter::fallback_fraction() const {
  const NodeId n = schedule_->node_count();
  // Distinct union topologies: one per dwell boundary of any lane. Sample
  // each schedule slot where lane 0's matching changes.
  std::int64_t total = 0;
  std::int64_t fallbacks = 0;
  Rng rng(1);
  for (Slot t = 0; t < schedule_->period(); ++t) {
    if (t > 0 && schedule_->matching_at(t) == schedule_->matching_at(t - 1))
      continue;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId d = 0; d < n; ++d) {
        if (s == d) continue;
        ++total;
        if (route(s, d, t, rng).hop_count() == 1 &&
            [&] {
              const auto nbrs = active_neighbors(s, t);
              return std::find(nbrs.begin(), nbrs.end(), d) == nbrs.end();
            }())
          ++fallbacks;
      }
    }
  }
  return total > 0 ? static_cast<double>(fallbacks) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace sorn
