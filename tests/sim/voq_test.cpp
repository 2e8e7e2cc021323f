#include "sim/voq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace sorn {
namespace {

Cell make_cell(NodeId src, NodeId via, NodeId dst, Slot ready) {
  Cell c;
  c.flow = 1;
  c.path = Path::of({src, via, dst});
  c.hop = 0;
  c.inject_slot = 0;
  c.ready_slot = ready;
  return c;
}

// The engine's pop: a sharded pop, settled into the total at once.
void pop(VoqSet& voqs, NodeId node, NodeId next_hop) {
  voqs.pop_sharded(node, next_hop);
  voqs.settle_total(1);
}

TEST(VoqTest, PushPeekPop) {
  VoqSet voqs(4);
  voqs.push(make_cell(0, 1, 2, 0));
  EXPECT_EQ(voqs.total_queued(), 1u);
  EXPECT_EQ(voqs.queued_at(0), 1u);
  const Cell* head = voqs.peek(0, 1, 0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->next_hop(), 1);
  pop(voqs, 0, 1);
  EXPECT_EQ(voqs.total_queued(), 0u);
  EXPECT_EQ(voqs.peek(0, 1, 0), nullptr);
}

TEST(VoqTest, ReadySlotGatesTransmission) {
  VoqSet voqs(4);
  voqs.push(make_cell(0, 1, 2, 5));
  EXPECT_EQ(voqs.peek(0, 1, 4), nullptr);
  EXPECT_NE(voqs.peek(0, 1, 5), nullptr);
}

TEST(VoqTest, FifoOrderWithinQueue) {
  VoqSet voqs(4);
  Cell a = make_cell(0, 1, 2, 0);
  a.flow = 10;
  Cell b = make_cell(0, 1, 3, 0);
  b.flow = 20;
  voqs.push(a);
  voqs.push(b);
  EXPECT_EQ(voqs.peek(0, 1, 0)->flow, 10u);
  pop(voqs, 0, 1);
  EXPECT_EQ(voqs.peek(0, 1, 0)->flow, 20u);
}

TEST(VoqTest, QueuesAreSeparatedByNextHop) {
  VoqSet voqs(4);
  voqs.push(make_cell(0, 1, 2, 0));
  voqs.push(make_cell(0, 2, 3, 0));
  EXPECT_NE(voqs.peek(0, 1, 0), nullptr);
  EXPECT_NE(voqs.peek(0, 2, 0), nullptr);
  EXPECT_EQ(voqs.peek(0, 3, 0), nullptr);
  EXPECT_EQ(voqs.queued_at(0), 2u);
}

TEST(VoqTest, MaxQueueDepth) {
  VoqSet voqs(4);
  for (int i = 0; i < 5; ++i) voqs.push(make_cell(0, 1, 2, 0));
  voqs.push(make_cell(1, 2, 3, 0));
  EXPECT_EQ(voqs.max_queue_depth(), 5u);
}

TEST(VoqTest, MaxQueueDepthTracksPushPopDropSequence) {
  // Pins the depth gauge across a mixed push / pop / refused-push
  // sequence: the sparse layout computes it from occupied queues only, and
  // it must match the dense layout's full-scan answer at every step.
  VoqSet voqs(4);
  EXPECT_EQ(voqs.max_queue_depth(), 0u);

  for (int i = 0; i < 3; ++i) voqs.push(make_cell(0, 1, 2, 0));
  EXPECT_EQ(voqs.max_queue_depth(), 3u);

  // A second, deeper queue takes over the max.
  for (int i = 0; i < 6; ++i) voqs.push(make_cell(2, 3, 1, 0));
  EXPECT_EQ(voqs.max_queue_depth(), 6u);

  // A refused push (tail-drop) must not move the gauge: the engine's
  // admission judges size_of against the cap and does not push.
  EXPECT_GE(voqs.size_of(2, 3), /*cap=*/6u);
  EXPECT_EQ(voqs.max_queue_depth(), 6u);

  // Draining the deep queue hands the max back to the shallow one.
  for (int i = 0; i < 6; ++i) pop(voqs, 2, 3);
  EXPECT_EQ(voqs.max_queue_depth(), 3u);

  // Draining everything returns the gauge to zero.
  for (int i = 0; i < 3; ++i) pop(voqs, 0, 1);
  EXPECT_EQ(voqs.max_queue_depth(), 0u);
  EXPECT_EQ(voqs.total_queued(), 0u);
}

TEST(VoqTest, SizeOfUnmaterializedQueueIsZero) {
  VoqSet voqs(4);
  // Never-touched queue: no entry exists, size must read as 0 (the merge
  // phase's capacity check relies on this).
  EXPECT_EQ(voqs.size_of(1, 3), 0u);
  voqs.push(make_cell(1, 3, 2, 0));
  EXPECT_EQ(voqs.size_of(1, 3), 1u);
  // Drained queue: the sparse entry is erased, not left empty.
  pop(voqs, 1, 3);
  EXPECT_EQ(voqs.size_of(1, 3), 0u);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
}

TEST(VoqTest, OccupiedQueuesTracksLiveFanOut) {
  VoqSet voqs(8);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
  voqs.push(make_cell(0, 1, 2, 0));
  voqs.push(make_cell(0, 1, 3, 0));  // same (0, 1) queue
  voqs.push(make_cell(0, 5, 3, 0));
  voqs.push(make_cell(4, 2, 6, 0));
  EXPECT_EQ(voqs.occupied_queues(), 3u);
  pop(voqs, 0, 1);
  EXPECT_EQ(voqs.occupied_queues(), 3u) << "one cell left in (0, 1)";
  pop(voqs, 0, 1);
  EXPECT_EQ(voqs.occupied_queues(), 2u) << "(0, 1) drained and erased";
  pop(voqs, 0, 5);
  pop(voqs, 4, 2);
  EXPECT_EQ(voqs.occupied_queues(), 0u);
}

TEST(VoqTest, ShardedPopsSettleIntoTotal) {
  // The parallel engine's contract: pop_sharded leaves total_queued
  // untouched (shards may not write shared state) and the coordinator
  // settles the sum once per slot.
  VoqSet voqs(4);
  voqs.push(make_cell(0, 1, 2, 0));
  voqs.push(make_cell(2, 3, 1, 0));
  voqs.pop_sharded(0, 1);
  voqs.pop_sharded(2, 3);
  EXPECT_EQ(voqs.total_queued(), 2u) << "sharded pops defer the total";
  EXPECT_EQ(voqs.queued_at(0), 0u) << "per-node state settles immediately";
  EXPECT_EQ(voqs.queued_at(2), 0u);
  voqs.settle_total(2);
  EXPECT_EQ(voqs.total_queued(), 0u);
}

TEST(VoqTest, PathAssignmentKeepsTheFieldsInItsTailPadding) {
  // hop and ecn live in Path's tail padding ([[no_unique_address]]); a
  // path copy must write the path's bytes only, never the padding.
  Cell c = make_cell(0, 1, 2, 0);
  c.hop = 1;
  c.ecn = true;
  c.path = Path::of({3, 1, 2});
  EXPECT_EQ(c.hop, 1);
  EXPECT_TRUE(c.ecn);
  EXPECT_EQ(c.current(), 1);
  EXPECT_EQ(c.next_hop(), 2);
}

TEST(VoqTest, RejectsDeliveredCell) {
  VoqSet voqs(4);
  Cell c = make_cell(0, 1, 2, 0);
  c.hop = 2;  // already at destination
  EXPECT_DEATH(voqs.push(c), "delivered");
}

TEST(VoqTest, PopEmptyAborts) {
  VoqSet voqs(2);
  EXPECT_DEATH(voqs.pop_sharded(0, 1), "empty");
}

// Differential check of the hashed per-node index: a seeded sequence of
// push / peek / pop_sharded + settle_total runs against a reference
// std::map<(node, next hop), std::deque<Cell>>, and every observable —
// size_of, queued_at, total_queued, max_queue_depth, occupied_queues and
// the peeked head — is compared after every operation.
class VoqDiff {
 public:
  explicit VoqDiff(NodeId nodes) : voqs_(nodes) {}

  void push(NodeId node, NodeId hop, Slot ready) {
    Cell c;
    c.flow = next_flow_++;
    c.path = Path::of({node, hop});
    c.ready_slot = ready;
    voqs_.push(c);
    ref_[{node, hop}].push_back(c);
    check(node, hop);
  }

  void pop(NodeId node, NodeId hop) {
    const auto it = ref_.find({node, hop});
    ASSERT_NE(it, ref_.end()) << "the sequence pops only occupied queues";
    voqs_.pop_sharded(node, hop);
    voqs_.settle_total(1);
    it->second.pop_front();
    if (it->second.empty()) ref_.erase(it);
    check(node, hop);
  }

  void peek(NodeId node, NodeId hop, Slot now) {
    const auto it = ref_.find({node, hop});
    const Cell* want = it == ref_.end() || it->second.front().ready_slot > now
                           ? nullptr
                           : &it->second.front();
    const Cell* got = voqs_.peek(node, hop, now);
    ASSERT_EQ(got == nullptr, want == nullptr)
        << "peek(" << node << ", " << hop << ", " << now << ")";
    if (got != nullptr) {
      EXPECT_EQ(got->flow, want->flow);
    }
    check(node, hop);
  }

  // Next hops of node's occupied queues, in the reference's order.
  std::vector<NodeId> hops_at(NodeId node) const {
    std::vector<NodeId> hops;
    for (auto it = ref_.lower_bound({node, 0});
         it != ref_.end() && it->first.first == node; ++it)
      hops.push_back(it->first.second);
    return hops;
  }

  std::size_t occupied() const { return ref_.size(); }
  const VoqSet& voqs() const { return voqs_; }

 private:
  void check(NodeId node, NodeId hop) const {
    const auto it = ref_.find({node, hop});
    EXPECT_EQ(voqs_.size_of(node, hop),
              it == ref_.end() ? 0u : it->second.size());
    std::uint64_t at_node = 0;
    std::uint64_t total = 0;
    std::uint64_t depth = 0;
    for (const auto& [key, cells] : ref_) {
      if (key.first == node) at_node += cells.size();
      total += cells.size();
      depth = std::max<std::uint64_t>(depth, cells.size());
    }
    EXPECT_EQ(voqs_.queued_at(node), at_node);
    EXPECT_EQ(voqs_.total_queued(), total);
    EXPECT_EQ(voqs_.max_queue_depth(), depth);
    EXPECT_EQ(voqs_.occupied_queues(), ref_.size());
  }

  VoqSet voqs_;
  std::map<std::pair<NodeId, NodeId>, std::deque<Cell>> ref_;
  FlowId next_flow_ = 1;
};

TEST(VoqDifferentialTest, HashedIndexMatchesAnOrderedMap) {
  constexpr NodeId kNodes = 2048;
  VoqDiff diff(kNodes);
  Rng rng(0x5eed);

  // Growth: node 0 fans out to 1100 next hops in shuffled order, so its
  // index doubles past 2048 entries with every lookup still exact.
  std::vector<NodeId> hops;
  for (NodeId h = 1; h <= 1100; ++h) hops.push_back(h);
  rng.shuffle(hops);
  for (const NodeId h : hops) {
    const auto cells = 1 + rng.next_below(3);
    for (std::uint64_t c = 0; c < cells; ++c)
      diff.push(0, h, static_cast<Slot>(rng.next_below(4)));
    if (HasFailure()) return;
  }
  EXPECT_EQ(diff.occupied(), 1100u);
  for (NodeId h = 1; h < kNodes; h += 7) diff.peek(0, h, 2);

  // Swap-remove of the last and of a middle entry: four queues pushed in
  // order, then the newest drained, then one from the middle.
  for (const NodeId h : {10, 20, 30, 40}) diff.push(1, h, 0);
  diff.pop(1, 40);
  for (const NodeId h : {10, 20, 30}) diff.peek(1, h, 0);
  diff.pop(1, 20);
  for (const NodeId h : {10, 20, 30, 40}) diff.peek(1, h, 0);
  diff.push(1, 40, 0);
  diff.pop(1, 10);
  for (const NodeId h : {10, 30, 40}) diff.peek(1, h, 0);

  // Churn: node 0 drains its 1100 queues in random order while it keeps
  // taking new ones, so erases backward-shift probe runs of a large
  // table. Nodes 2..65 each churn a fixed set of four next hops, which
  // keeps their tables at the smallest size and at load up to 1/2: there
  // probe runs collide and wrap around the table's end all the time.
  constexpr NodeId kSmall = 64;
  std::vector<std::vector<NodeId>> small_hops;
  for (NodeId node = 2; node < 2 + kSmall; ++node) {
    std::vector<NodeId> four;
    while (four.size() < 4) {
      const auto h = static_cast<NodeId>(rng.next_below(kNodes));
      if (h != node && std::find(four.begin(), four.end(), h) == four.end())
        four.push_back(h);
    }
    small_hops.push_back(four);
  }
  for (int op = 0; op < 40000 && !HasFailure(); ++op) {
    const auto node = static_cast<NodeId>(rng.next_below(2 + kSmall));
    const NodeId hop =
        node < 2 ? static_cast<NodeId>(1 + rng.next_below(kNodes - 1))
                 : small_hops[static_cast<std::size_t>(node - 2)]
                             [rng.next_below(4)];
    const std::uint64_t kind = rng.next_below(100);
    if (kind < (node == 0 ? 25u : 45u)) {
      if (hop != node)
        diff.push(node, hop, static_cast<Slot>(rng.next_below(4)));
    } else if (kind < 85) {
      const std::vector<NodeId> occupied = diff.hops_at(node);
      if (!occupied.empty())
        diff.pop(node, occupied[rng.next_below(occupied.size())]);
    } else {
      diff.peek(node, hop, static_cast<Slot>(rng.next_below(4)));
    }
  }

  // Drain everything; the set must end empty.
  for (NodeId node = 0; node < 2 + kSmall && !HasFailure(); ++node) {
    std::vector<NodeId> occupied = diff.hops_at(node);
    rng.shuffle(occupied);
    for (const NodeId h : occupied) {
      while (diff.voqs().size_of(node, h) > 0 && !HasFailure())
        diff.pop(node, h);
    }
  }
  EXPECT_EQ(diff.occupied(), 0u);
  EXPECT_EQ(diff.voqs().total_queued(), 0u);
  EXPECT_EQ(diff.voqs().occupied_queues(), 0u);
}

TEST(VoqDifferentialTest, MemoryBytesCountsTheIndex) {
  // The same 1024 one-cell queues, concentrated on one node or spread one
  // per node, need the same cells, chunks and queue entries; only the
  // index tables differ — one 2048-entry table against 1024 smallest
  // tables — so the gauge can tell them apart only by counting the index.
  constexpr NodeId kNodes = 2048;
  VoqSet concentrated(kNodes);
  VoqSet spread(kNodes);
  const std::uint64_t empty = concentrated.memory_bytes();
  EXPECT_EQ(spread.memory_bytes(), empty);
  for (NodeId i = 0; i < 1024; ++i) {
    concentrated.push(make_cell(0, i + 1, kNodes - 1, 0));
    spread.push(make_cell(i, i + 1, kNodes - 1, 0));
  }
  EXPECT_GT(concentrated.memory_bytes(), empty);
  EXPECT_GT(spread.memory_bytes(), concentrated.memory_bytes());
}

}  // namespace
}  // namespace sorn
