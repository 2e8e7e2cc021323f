#include "sim/voq.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace sorn {

namespace {

// Index size of a node's first queue: one cache line of entries.
constexpr std::size_t kMinIndexSize = 8;

// Fibonacci hashing: the top bits of hop * 2^64/phi. Next hops of one node
// are often regularly spaced (clique strides, cyclic shifts), and the top
// bits of the product spread such sequences where low bits would collide.
std::size_t home(NodeId next_hop, int shift) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(next_hop)) *
       0x9E3779B97F4A7C15ULL) >>
      shift);
}

}  // namespace

VoqSet::VoqSet(NodeId nodes)
    : n_(nodes), nodes_(static_cast<std::size_t>(nodes)) {
  SORN_ASSERT(nodes > 0, "VOQ set needs at least one node");
}

std::size_t VoqSet::probe(const NodeQueues& nq, NodeId next_hop) {
  const std::size_t mask = nq.index.size() - 1;
  for (std::size_t i = home(next_hop, nq.hash_shift);; i = (i + 1) & mask) {
    const NodeId key = nq.index[i].next_hop;
    if (key == next_hop || key == kNoNode) return i;
  }
}

void VoqSet::rehash(NodeQueues& nq, std::size_t size) {
  nq.index.assign(size, IndexEntry{});
  nq.hash_shift = 64 - std::countr_zero(size);
  for (std::size_t pos = 0; pos < nq.occupied.size(); ++pos) {
    const NodeId hop = nq.occupied[pos].next_hop;
    nq.index[probe(nq, hop)] = {hop, static_cast<std::uint32_t>(pos)};
  }
}

void VoqSet::erase(NodeQueues& nq, std::size_t slot) {
  const std::uint32_t pos = nq.index[slot].pos;
  const std::size_t last = nq.occupied.size() - 1;
  if (pos != last) {
    nq.occupied[pos] = std::move(nq.occupied[last]);
    nq.index[probe(nq, nq.occupied[pos].next_hop)].pos = pos;
  }
  nq.occupied.pop_back();
  // Backward-shift deletion: walk the probe run after the hole and pull
  // back every entry whose home does not lie cyclically in (hole, j], so
  // each remaining key stays reachable from its home without tombstones.
  const std::size_t mask = nq.index.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (slot + 1) & mask; nq.index[j].next_hop != kNoNode;
       j = (j + 1) & mask) {
    const std::size_t h = home(nq.index[j].next_hop, nq.hash_shift);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      nq.index[hole] = nq.index[j];
      hole = j;
    }
  }
  nq.index[hole] = IndexEntry{};
}

void VoqSet::push(const Cell& cell) {
  SORN_ASSERT(!cell.at_destination(), "delivered cells must not be queued");
  const NodeId hop = cell.next_hop();
  NodeQueues& nq = nodes_[static_cast<std::size_t>(cell.current())];
  if (nq.index.empty()) rehash(nq, kMinIndexSize);
  std::size_t slot = probe(nq, hop);
  if (nq.index[slot].next_hop == kNoNode) {
    // New queue; keep the load at or under 1/2.
    if (2 * (nq.occupied.size() + 1) > nq.index.size()) {
      rehash(nq, 2 * nq.index.size());
      slot = probe(nq, hop);
    }
    nq.index[slot] = {hop, static_cast<std::uint32_t>(nq.occupied.size())};
    nq.occupied.push_back(Voq{hop, CellFifo{}});
  }
  nq.occupied[nq.index[slot].pos].fifo.push_back(nq.pool, cell);
  ++nq.count;
  ++total_;
}

const VoqSet::CellFifo* VoqSet::find(NodeId node, NodeId next_hop) const {
  const NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
  if (nq.occupied.empty()) return nullptr;
  const IndexEntry& e = nq.index[probe(nq, next_hop)];
  if (e.next_hop != next_hop) return nullptr;
  return &nq.occupied[e.pos].fifo;
}

const Cell* VoqSet::peek(NodeId node, NodeId next_hop, Slot now) const {
  const CellFifo* q = find(node, next_hop);
  if (q == nullptr || q->front().ready_slot > now) return nullptr;
  return &q->front();
}

std::uint64_t VoqSet::size_of(NodeId node, NodeId next_hop) const {
  const CellFifo* q = find(node, next_hop);
  return q == nullptr ? 0 : q->size();
}

void VoqSet::pop_sharded(NodeId node, NodeId next_hop) {
  NodeQueues& nq = nodes_[static_cast<std::size_t>(node)];
  SORN_ASSERT(!nq.occupied.empty(), "pop from empty VOQ");
  const std::size_t slot = probe(nq, next_hop);
  SORN_ASSERT(nq.index[slot].next_hop == next_hop, "pop from empty VOQ");
  CellFifo& fifo = nq.occupied[nq.index[slot].pos].fifo;
  fifo.pop_front(nq.pool);
  if (fifo.empty()) erase(nq, slot);
  --nq.count;
}

std::uint64_t VoqSet::max_queue_depth() const {
  std::uint64_t depth = 0;
  for (const NodeQueues& nq : nodes_) {
    if (nq.count == 0) continue;
    for (const Voq& v : nq.occupied)
      depth = std::max<std::uint64_t>(depth, v.fifo.size());
  }
  return depth;
}

std::uint64_t VoqSet::occupied_queues() const {
  std::uint64_t queues = 0;
  for (const NodeQueues& nq : nodes_) queues += nq.occupied.size();
  return queues;
}

std::uint64_t VoqSet::memory_bytes() const {
  std::uint64_t bytes = nodes_.capacity() * sizeof(NodeQueues);
  for (const NodeQueues& nq : nodes_) {
    bytes += nq.occupied.capacity() * sizeof(Voq);
    bytes += nq.index.capacity() * sizeof(IndexEntry);
    // The per-node pool holds every chunk the node ever chained
    // (live + recyclable) — allocator truth, not an estimate.
    bytes += nq.pool.memory_bytes();
  }
  return bytes;
}

}  // namespace sorn
