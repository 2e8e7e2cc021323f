// Per-node virtual output queues, stored sparsely.
//
// Each node keeps one FIFO per next-hop neighbor (the NIC state of the
// paper's Fig. 2c). Cells are enqueued with a ready slot; because every
// enqueue uses the same fixed delay, FIFO order coincides with ready order
// and only the head needs checking.
//
// Storage is per-node and sparse: a node owns a dense, unordered vector of
// its *occupied* queues (next-hop -> FIFO), created on first push and
// swap-removed when drained, plus a hashed index from next hop to vector
// position. Memory is O(nodes + occupied queues) instead of the dense
// N x N deque array the simulator started with — at the paper's Table-1
// scale (N = 4096) the dense layout alone was ~16.7M empty deques, several
// gigabytes of overhead before the first cell moved. total_queued() is O(1)
// and max_queue_depth() scans only occupied queues (O(active)), so
// telemetry sampling no longer pays an O(N^2) sweep per sample.
//
// The index is an open-addressing table of {next_hop, position} entries:
// power-of-two size, load <= 1/2, linear probing, and backward-shift
// deletion (no tombstones), so push, peek, pop_sharded and size_of are
// expected O(1). Most engine lookups miss — a node is asked for the queue
// toward every lane's peer each slot, and holds ~65 of N = 4096 possible
// queues — and a miss ends at the first empty entry.
//
// Cell storage is arena-allocated (util/arena.h): each FIFO is a chain of
// fixed-size chunks drawn from a per-node ChunkPool, so steady-state push/
// pop traffic recycles chunks instead of hitting the heap, and a drained
// burst's storage is reused by the next one.
//
// Thread contract (sim/parallel.h): the engine's sweep is the only
// popper. Its shards own disjoint node ranges and only peek()/
// pop_sharded() their own nodes. All state a pop touches — the node's
// queues, its index, its cell count, and its chunk pool — is per-node, so
// sharded pops stay race-free; the one global, total_, is deliberately
// NOT updated by pop_sharded and is settled once per slot by the
// coordinating thread (settle_total). Pushes, with the capacity/ECN
// decision made by the caller against size_of(), happen on the
// coordinating thread only.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cell.h"
#include "util/arena.h"
#include "util/types.h"

namespace sorn {

class VoqSet {
 public:
  // Queues for `nodes` nodes, one per possible next hop, materialized
  // lazily on first use.
  explicit VoqSet(NodeId nodes);

  // Unconditional enqueue; the caller has already admitted the cell
  // (capacity/ECN, judged against size_of).
  void push(const Cell& cell);

  // Head cell queued at `node` for `next_hop` if transmittable at `now`,
  // else nullptr. Does not pop. The pointer is valid until the next
  // mutation of this (node, next_hop) queue.
  const Cell* peek(NodeId node, NodeId next_hop, Slot now) const;

  // Pop the head without touching the global total. Shards pop only their
  // own nodes' queues — disjoint state — but total_ is shared, so each
  // shard counts its pops locally and the engine settles the sum once per
  // slot (settle_total). total_queued() is exact only after the settle.
  void pop_sharded(NodeId node, NodeId next_hop);
  void settle_total(std::uint64_t pops) { total_ -= pops; }
  // Raw FIFO depth, which the engine's capacity/ECN admission judges.
  // 0 when the queue is not materialized.
  std::uint64_t size_of(NodeId node, NodeId next_hop) const;

  std::uint64_t queued_at(NodeId node) const {
    return nodes_[static_cast<std::size_t>(node)].count;
  }
  std::uint64_t total_queued() const { return total_; }
  // Deepest occupied FIFO; O(occupied queues), not O(N^2).
  std::uint64_t max_queue_depth() const;
  // Number of occupied (node, next-hop) queues right now; O(nodes).
  std::uint64_t occupied_queues() const;

  // Bytes of queue storage: the per-node queues and index tables plus
  // every pool chunk (live and recyclable — allocator truth). O(nodes); a
  // profiler gauge (obs/prof), sampled, not a hot-path call.
  std::uint64_t memory_bytes() const;

 private:
  // Cells per pool chunk: sized so a chunk is a few cache lines (~520 B
  // of 64-byte Cells) — shallow queues stay one-chunk, deep bursts chain
  // without large-block allocation.
  static constexpr std::size_t kChunkCells = 8;
  using CellFifo = PooledFifo<Cell, kChunkCells>;

  // One occupied queue of a node; its fifo is never empty.
  struct Voq {
    NodeId next_hop = 0;
    CellFifo fifo;
  };
  // One index table entry; next_hop == kNoNode marks an empty entry.
  struct IndexEntry {
    NodeId next_hop = kNoNode;
    std::uint32_t pos = 0;  // into NodeQueues::occupied
  };
  struct NodeQueues {
    std::vector<Voq> occupied;  // unordered; every fifo non-empty
    // Open-addressing index over `occupied`: empty until the first push,
    // then a power of two at least twice occupied.size().
    std::vector<IndexEntry> index;
    int hash_shift = 0;  // 64 - log2(index.size())
    std::uint64_t count = 0;  // cells queued at this node
    // Chunk storage for every FIFO of this node. Per-node so the shard
    // contract above covers allocator state too.
    ChunkPool<Cell, kChunkCells> pool;
  };

  // Index entry holding `next_hop`, or the empty entry that ends its probe
  // sequence. nq.index must be non-empty.
  static std::size_t probe(const NodeQueues& nq, NodeId next_hop);
  // Rebuild nq's index at `size` entries (a power of two).
  static void rehash(NodeQueues& nq, std::size_t size);
  // Drop the drained queue indexed at entry `slot`: swap-remove it from
  // occupied and backward-shift the probe run behind the entry.
  static void erase(NodeQueues& nq, std::size_t slot);
  // The queue of (node, next_hop); nullptr when unoccupied.
  const CellFifo* find(NodeId node, NodeId next_hop) const;

  NodeId n_;
  std::vector<NodeQueues> nodes_;
  std::uint64_t total_ = 0;
};

}  // namespace sorn
