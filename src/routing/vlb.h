// Two-hop Valiant load balancing over a flat oblivious schedule
// (Sirius / RotorNet / Shoal style, paper Sec. 2).
#pragma once

#include "routing/router.h"
#include "topo/schedule.h"

namespace sorn {

class VlbRouter : public Router {
 public:
  // `schedule` must outlive the router. With kFirstAvailable the
  // intermediate is the node src connects to in the next slot; with
  // kRandom it is uniform over nodes other than src.
  VlbRouter(const CircuitSchedule* schedule, LbMode mode);

  Path route(NodeId src, NodeId dst, Slot now, Rng& rng) const override;
  int max_hops() const override { return 2; }

 private:
  const CircuitSchedule* schedule_;
  LbMode mode_;
};

}  // namespace sorn
