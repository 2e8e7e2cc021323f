// Opera-style routing over a slow rotor schedule (Mellette et al.).
//
// With a rotor schedule (ScheduleBuilder::rotor) and u phase-shifted
// uplink lanes, every node has u circuits active at any instant; their
// union is an expander that changes only every dwell. Latency-sensitive
// (short) flows ride multi-hop paths over the currently-active union —
// delta_m = 0, paths are up immediately; bulk flows take the direct
// circuit and wait for the rotation (delta_m = N-1 over u lanes).
//
// RotorRouter implements the short-flow path choice; bulk flows take the
// direct path (DirectRouter). Callers split flows by size, as Opera does.
#pragma once

#include "routing/router.h"
#include "topo/schedule.h"

namespace sorn {

class RotorRouter : public Router {
 public:
  // schedule must be a rotor (or any) schedule; lanes must match the
  // SlottedNetwork's lane count so the active union is computed for the
  // same instantaneous topology the fabric realizes.
  RotorRouter(const CircuitSchedule* schedule, int lanes, int max_hops);

  // Shortest path over the union of the lanes' active matchings at slot
  // `now`. When dst is farther than max_hops in the current union (rare
  // with enough lanes on a rotor_random schedule), falls back to the
  // direct circuit — the flow then pays rotation latency like bulk, which
  // is Opera's non-minimal fallback behaviour.
  Path route(NodeId src, NodeId dst, Slot now, Rng& rng) const override;

  // Fraction of (src, dst, window) combinations the BFS cannot reach
  // within the hop budget — provisioning diagnostic; 0 means every short
  // flow always gets an expander path.
  double fallback_fraction() const;
  int max_hops() const override { return max_hops_; }

  // Neighbors of `node` in the active union at slot `now` (one per lane,
  // deduplicated).
  std::vector<NodeId> active_neighbors(NodeId node, Slot now) const;

 private:
  const CircuitSchedule* schedule_;
  int lanes_;
  int max_hops_;
};

}  // namespace sorn
