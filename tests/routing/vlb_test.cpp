#include "routing/vlb.h"

#include <gtest/gtest.h>

#include <map>

#include "routing/direct.h"
#include "topo/schedule_builder.h"

namespace sorn {
namespace {

TEST(VlbTest, PathsHaveAtMostTwoHops) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(16);
  const VlbRouter router(&s, LbMode::kRandom);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const Path p = router.route(3, 9, 0, rng);
    EXPECT_LE(p.hop_count(), router.max_hops());
    EXPECT_GE(p.hop_count(), 1);
    EXPECT_EQ(p.src(), 3);
    EXPECT_EQ(p.dst(), 9);
  }
}

TEST(VlbTest, FirstAvailablePicksUpcomingNeighbor) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(8);
  const VlbRouter router(&s, LbMode::kFirstAvailable);
  Rng rng(2);
  // At slot 0, node 0 connects to node 1; a route to node 5 should relay
  // via node 1.
  const Path p = router.route(0, 5, 0, rng);
  ASSERT_EQ(p.size(), 3);
  EXPECT_EQ(p.at(1), 1);
  // At slot 4, node 0 connects to node 5 == dst: route direct.
  const Path direct = router.route(0, 5, 4, rng);
  EXPECT_EQ(direct.hop_count(), 1);
}

TEST(VlbTest, RandomIntermediateIsLoadBalanced) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(16);
  const VlbRouter router(&s, LbMode::kRandom);
  Rng rng(3);
  std::map<NodeId, int> mids;
  const int draws = 16000;
  for (int i = 0; i < draws; ++i) {
    const Path p = router.route(0, 1, 0, rng);
    if (p.size() == 3) ++mids[p.at(1)];
  }
  // All 14 possible intermediates (everything except src and dst) appear,
  // each within 3x of the uniform share.
  EXPECT_EQ(mids.size(), 14u);
  for (const auto& [mid, count] : mids) {
    EXPECT_NE(mid, 0);
    EXPECT_NE(mid, 1);
    EXPECT_GT(count, draws / 14 / 3);
    EXPECT_LT(count, draws / 14 * 3);
  }
}

// The no-load-balancing ablation of VLB is DirectRouter.
TEST(VlbTest, DirectHelperBuildsOneHop) {
  const DirectRouter direct;
  Rng rng(1);
  const Path p = direct.route(2, 6, 0, rng);
  EXPECT_EQ(p.hop_count(), 1);
}

TEST(VlbTest, RejectsSelfRoute) {
  const CircuitSchedule s = ScheduleBuilder::round_robin(4);
  const VlbRouter router(&s, LbMode::kRandom);
  Rng rng(4);
  EXPECT_DEATH(router.route(2, 2, 0, rng), "itself");
}

}  // namespace
}  // namespace sorn
