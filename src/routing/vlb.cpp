#include "routing/vlb.h"

#include "util/assert.h"

namespace sorn {

namespace {

// Bounded rejection for the failure-aware random intermediate: enough
// tries that missing every healthy node is vanishingly unlikely at any
// realistic failure fraction, small enough to bound the worst case.
constexpr int kMaxRandomTries = 64;

}  // namespace

VlbRouter::VlbRouter(const CircuitSchedule* schedule, LbMode mode)
    : schedule_(schedule), mode_(mode) {
  SORN_ASSERT(schedule_ != nullptr, "VLB router needs a schedule");
}

Path VlbRouter::route(NodeId src, NodeId dst, Slot now, Rng& rng) const {
  SORN_ASSERT(src != dst, "cannot route a node to itself");
  const bool avoid = avoid_failures();
  NodeId mid = src;
  if (mode_ == LbMode::kFirstAvailable) {
    // The neighbor on the current/next circuit: effectively zero added
    // intrinsic latency for the first hop (paper Sec. 4). With failures
    // visible, skip intermediates we could not reach or leave.
    for (Slot t = now; t < now + schedule_->period(); ++t) {
      const NodeId peer = schedule_->dst_of(src, t);
      if (peer == src) continue;
      if (avoid && peer != dst &&
          (!failures_->usable(src, peer) || !failures_->usable(peer, dst))) {
        continue;
      }
      mid = peer;
      break;
    }
  } else if (!avoid) {
    const auto n = static_cast<std::uint64_t>(schedule_->node_count());
    do {
      mid = static_cast<NodeId>(rng.next_below(n));
    } while (mid == src);
  } else {
    const auto n = static_cast<std::uint64_t>(schedule_->node_count());
    for (int tries = 0; tries < kMaxRandomTries; ++tries) {
      const NodeId pick = static_cast<NodeId>(rng.next_below(n));
      if (pick == src) continue;
      if (pick != dst && !failures_->usable(src, pick)) continue;
      if (pick != dst && !failures_->usable(pick, dst)) continue;
      mid = pick;
      break;
    }
    // All tries hit failed nodes: fall through with mid == src, which
    // collapses to the direct path below (outage semantics take over).
  }
  if (mid == dst || mid == src) return Path::of({src, dst});
  return Path::of({src, mid, dst});
}

}  // namespace sorn
