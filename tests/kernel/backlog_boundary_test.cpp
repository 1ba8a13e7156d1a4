// Backlog boundary behavior: enqueue at exactly netdev_max_backlog, the
// at-limit interaction with the reserved high-priority headroom, and
// re-arming of a drained backlog NAPI.
#include <gtest/gtest.h>

#include "fault/fault.h"
#include "kernel/overload.h"
#include "kernel/probe.h"
#include "kernel/skb.h"
#include "test_pipeline.h"

namespace prism::kernel {
namespace {

using testing::Pipeline;

struct CountingStage final : PacketStage {
  sim::Duration process_one(SkbPtr, sim::Time, double) override {
    ++processed;
    return 0;
  }
  const std::string& name() const override {
    static const std::string n = "count";
    return n;
  }
  int processed = 0;
};

TEST(BacklogBoundaryTest, EnqueueAtExactlyMaxBacklog) {
  fault::FaultLayer faults;
  PacketProbe probe;
  probe.drops = &faults.drops;
  CostModel cost;
  CountingStage stage;
  QueueNapi backlog("backlog", stage, cost);
  backlog.queue_limit = 8;
  backlog.set_faults(&faults);
  backlog.set_probe(&probe, /*stage=*/3);

  // The enqueue that lands on the last free slot (depth 7 -> 8) is
  // admitted; the queue is full at exactly netdev_max_backlog and the
  // next enqueue drops with reason backlog_full.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(backlog.enqueue(alloc_skb(), /*level=*/0)) << i;
  }
  EXPECT_EQ(backlog.pending_total(), 8u);
  EXPECT_FALSE(backlog.enqueue(alloc_skb(), /*level=*/0));
  EXPECT_EQ(backlog.pending_total(), 8u);
  EXPECT_EQ(backlog.low_dropped(), 1u);
  EXPECT_EQ(faults.drops.total(fault::DropReason::kBacklogFull), 1u);
}

TEST(BacklogBoundaryTest, AtLimitHeadroomAdmitsHighDropsLow) {
  fault::FaultLayer faults;
  PacketProbe probe;
  probe.drops = &faults.drops;
  OverloadConfig cfg;
  cfg.flow_limit = false;
  cfg.high_headroom = 0.25;  // 2 of 8 reserved
  CostModel cost;
  CountingStage stage;
  QueueNapi backlog("backlog", stage, cost);
  backlog.queue_limit = 8;
  backlog.set_faults(&faults);
  backlog.set_probe(&probe, /*stage=*/3);
  BacklogAdmission admission(cfg, /*max_backlog=*/8);
  backlog.set_admission(&admission);

  // Fill to the low-priority boundary (limit - headroom = 6).
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(backlog.enqueue(alloc_skb(), /*level=*/0)) << i;
  }
  // Exactly at the boundary: level 0 sheds, level 1 is still admitted.
  EXPECT_FALSE(backlog.enqueue(alloc_skb(), /*level=*/0));
  EXPECT_EQ(faults.drops.total(fault::DropReason::kOverloadShed), 1u);
  EXPECT_TRUE(backlog.enqueue(alloc_skb(), /*level=*/1));
  EXPECT_TRUE(backlog.enqueue(alloc_skb(), /*level=*/1));
  EXPECT_EQ(backlog.pending_total(), 8u);
  EXPECT_EQ(admission.shed_count(), 1u);
}

TEST(BacklogBoundaryTest, DrainToEmptyRearmsBacklogNapi) {
  // A backlog napi that was drained to empty (napi_complete) must be
  // pollable again on the next enqueue + schedule, repeatedly.
  Pipeline p(NapiMode::kPrismBatch);
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(p.veth.enqueue(alloc_skb(), /*level=*/0));
    }
    p.engine.napi_schedule(p.veth, false);
    p.sim.run();
    EXPECT_EQ(p.deliveries.size(), static_cast<std::size_t>(5 * round));
    EXPECT_EQ(p.veth.pending_total(), 0u);
    EXPECT_FALSE(p.veth.scheduled);
    EXPECT_TRUE(p.engine.idle());
  }
}

TEST(BacklogBoundaryTest, DrainToEmptyRearmsAfterSqueeze) {
  // Same re-arm guarantee when the drain went through the squeezed path
  // (ksoftirqd deferral) rather than a clean napi_complete.
  Pipeline p(NapiMode::kVanilla);
  p.cost.napi_budget = 32;
  p.feed(p.eth, 200);
  p.sim.run();
  ASSERT_EQ(p.deliveries.size(), 200u);
  ASSERT_TRUE(p.engine.idle());
  p.feed(p.eth, 10);
  p.sim.run();
  EXPECT_EQ(p.deliveries.size(), 210u);
  EXPECT_TRUE(p.engine.idle());
}

}  // namespace
}  // namespace prism::kernel
