// A source-selected path through the logical topology.
//
// Paths are at most a handful of hops in every design the paper studies
// (2 for 1D ORN, 2h for h-D, 3 for SORN inter-clique, 4 for Opera short
// flows), so they are stored inline — cells carry their path with no heap
// allocation in the simulator hot path.
#pragma once

#include <array>
#include <cstdint>

#include "util/types.h"

namespace sorn {

class Path {
 public:
  static constexpr int kMaxNodes = 8;

  Path() = default;

  // Construct from an explicit node sequence (first = src, last = dst).
  // Consecutive duplicates are collapsed so no-op hops never appear.
  static Path of(std::initializer_list<NodeId> nodes);

  void push_back(NodeId node);

  int size() const { return len_; }
  int hop_count() const { return len_ > 0 ? len_ - 1 : 0; }
  NodeId at(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  NodeId src() const { return at(0); }
  NodeId dst() const { return at(len_ - 1); }
  bool contains(NodeId node) const;
  // True if the directed edge (a, b) is one of the path's hops.
  bool uses_edge(NodeId a, NodeId b) const;

  bool operator==(const Path& other) const;

 private:
  std::array<NodeId, kMaxNodes> nodes_{};
  // One byte, so a Path is 33 bytes of data in a 36-byte object and the
  // Cell that embeds it can put small fields in the tail padding.
  std::uint8_t len_ = 0;
};

}  // namespace sorn
