// Overload-control tests: the flow limiter, priority-aware backlog
// admission, the governor state machine + livelock watchdog, NIC
// moderation stretch, the ksoftirqd deferral, and the netdev_budget_usecs
// time budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fault/fault.h"
#include "harness/testbed.h"
#include "kernel/overload.h"
#include "kernel/probe.h"
#include "kernel/skb.h"
#include "test_pipeline.h"

namespace prism::kernel {
namespace {

using testing::Pipeline;

// ---------------------------------------------------------- FlowLimiter

TEST(FlowLimiterTest, DormantBelowHalfBacklog) {
  FlowLimiter fl(/*num_buckets=*/64, /*history_len=*/128);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(fl.should_drop(/*flow_hash=*/7, /*qlen=*/63,
                                /*max_backlog=*/128));
  }
  EXPECT_EQ(fl.count(), 0u);
}

TEST(FlowLimiterTest, ShedsDominantFlowOnly) {
  FlowLimiter fl(/*num_buckets=*/64, /*history_len=*/128);
  // 3:1 mix of a hot flow and a mouse flow on a congested queue: the hot
  // flow exceeds half the history and gets shed, the mouse never does.
  std::uint64_t hot_drops = 0;
  std::uint64_t mouse_drops = 0;
  for (int i = 0; i < 400; ++i) {
    const bool mouse = i % 4 == 3;
    const bool dropped =
        fl.should_drop(mouse ? 11 : 3, /*qlen=*/100, /*max_backlog=*/128);
    (mouse ? mouse_drops : hot_drops) += dropped ? 1 : 0;
  }
  EXPECT_GT(hot_drops, 0u);
  EXPECT_EQ(mouse_drops, 0u);
  EXPECT_EQ(fl.count(), hot_drops);
}

TEST(FlowLimiterTest, HistoryEvictionForgetsColdFlows) {
  FlowLimiter fl(/*num_buckets=*/64, /*history_len=*/128);
  // Saturate with flow A, then switch entirely to flow B: once A's
  // history entries are evicted, B is judged fresh and A's dominance is
  // forgotten — B only starts being shed after it dominates the history
  // itself.
  for (int i = 0; i < 128; ++i) {
    fl.should_drop(3, /*qlen=*/100, /*max_backlog=*/128);
  }
  const std::uint64_t after_a = fl.count();
  bool b_dropped_early = false;
  for (int i = 0; i < 60; ++i) {
    b_dropped_early |= fl.should_drop(5, /*qlen=*/100, /*max_backlog=*/128);
  }
  EXPECT_FALSE(b_dropped_early);
  EXPECT_EQ(fl.count(), after_a);
}

// ---------------------------------------------- admission at the backlog

TEST(BacklogAdmissionTest, FlowLimitDropsAttributedToLedger) {
  fault::FaultLayer faults;
  PacketProbe probe;
  probe.drops = &faults.drops;
  OverloadConfig cfg;
  cfg.high_headroom = 0.0;
  CostModel cost;
  sim::Simulator sim;
  // A bare backlog napi: nothing drains it, so enqueues walk the depth
  // through the limiter's active region. All skbs hash to one flow (no
  // parse, empty payload), i.e. a perfectly dominant flood.
  struct NullStage final : PacketStage {
    sim::Duration process_one(SkbPtr, sim::Time, double) override {
      return 0;
    }
    const std::string& name() const override {
      static const std::string n = "null";
      return n;
    }
  } stage;
  QueueNapi backlog("veth", stage, cost);
  backlog.queue_limit = 64;
  backlog.set_faults(&faults);
  backlog.set_probe(&probe, /*stage=*/3);
  BacklogAdmission admission(cfg, /*max_backlog=*/64);
  backlog.set_admission(&admission);

  int admitted = 0;
  for (int i = 0; i < 70; ++i) {
    admitted += backlog.enqueue(alloc_skb(), /*level=*/0) ? 1 : 0;
  }
  // 64 fill the queue. The history (64 deep, recording from depth 32)
  // convicts the flow once it holds more than half the history: the
  // attempt at exactly-full depth is shed by the (zero) headroom check,
  // every one after it is a flow_limit shed.
  EXPECT_EQ(admitted, 64);
  EXPECT_EQ(admission.flow_limit_count(), 5u);
  EXPECT_EQ(faults.drops.total(fault::DropReason::kFlowLimit), 5u);
  EXPECT_EQ(faults.drops.total(fault::DropReason::kOverloadShed), 1u);
  EXPECT_EQ(backlog.low_dropped(), 6u);
  (void)sim;
}

TEST(BacklogAdmissionTest, HeadroomReservedForHighPriority) {
  fault::FaultLayer faults;
  PacketProbe probe;
  probe.drops = &faults.drops;
  OverloadConfig cfg;
  cfg.flow_limit = false;
  cfg.high_headroom = 0.10;  // 10 of 100 reserved
  CostModel cost;
  struct NullStage final : PacketStage {
    sim::Duration process_one(SkbPtr, sim::Time, double) override {
      return 0;
    }
    const std::string& name() const override {
      static const std::string n = "null";
      return n;
    }
  } stage;
  QueueNapi backlog("veth", stage, cost);
  backlog.queue_limit = 100;
  backlog.set_faults(&faults);
  backlog.set_probe(&probe, /*stage=*/3);
  BacklogAdmission admission(cfg, /*max_backlog=*/100);
  backlog.set_admission(&admission);

  int low_admitted = 0;
  for (int i = 0; i < 100; ++i) {
    low_admitted += backlog.enqueue(alloc_skb(), /*level=*/0) ? 1 : 0;
  }
  // Level 0 stops at the headroom boundary...
  EXPECT_EQ(low_admitted, 90);
  EXPECT_EQ(admission.shed_count(), 10u);
  EXPECT_EQ(faults.drops.total(fault::DropReason::kOverloadShed), 10u);
  // ...while level 1 is admitted into the reserved region.
  int high_admitted = 0;
  for (int i = 0; i < 10; ++i) {
    high_admitted += backlog.enqueue(alloc_skb(), /*level=*/1) ? 1 : 0;
  }
  EXPECT_EQ(high_admitted, 10);
  EXPECT_EQ(backlog.pending_total(), 100u);
}

// ------------------------------------------------------------- governor

OverloadConfig quick_governor_config() {
  OverloadConfig cfg;
  cfg.squeeze_enter_streak = 3;
  cfg.residency_enter_streak = 4;
  cfg.livelock_polls = 5;
  return cfg;
}

TEST(OverloadGovernorTest, DepthWatermarkHysteresis) {
  sim::Simulator sim;
  std::size_t depth = 0;
  int stretch_calls = 0;
  int restore_calls = 0;
  OverloadGovernor gov(sim, quick_governor_config(), /*max_backlog=*/100);
  gov.set_depth_probe([&] { return depth; });
  gov.set_moderation_hook([&](bool on) { (on ? stretch_calls
                                             : restore_calls)++; });

  gov.note_enqueue(/*depth=*/74);  // below enter watermark (75)
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kNormal);
  gov.note_enqueue(/*depth=*/75);
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kOverloaded);
  EXPECT_EQ(gov.entries(), 1u);
  EXPECT_EQ(stretch_calls, 1);

  // Still above the exit watermark: stays overloaded.
  depth = 40;
  gov.note_softirq_end(/*squeezed=*/false, /*residual=*/0);
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kOverloaded);
  // At/below the exit watermark (25) with clear streaks: recovers.
  depth = 20;
  gov.note_softirq_end(/*squeezed=*/false, /*residual=*/0);
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kNormal);
  EXPECT_EQ(gov.exits(), 1u);
  EXPECT_EQ(restore_calls, 1);

  ASSERT_EQ(gov.transitions().size(), 2u);
  EXPECT_STREQ(gov.transitions()[0].cause, "depth");
  EXPECT_STREQ(gov.transitions()[1].cause, "recovered");
}

TEST(OverloadGovernorTest, SqueezeStreakEntersAndResets) {
  sim::Simulator sim;
  OverloadGovernor gov(sim, quick_governor_config(), /*max_backlog=*/100);
  gov.set_depth_probe([] { return std::size_t{0}; });
  // A broken streak does not accumulate.
  gov.note_softirq_end(true, 1);
  gov.note_softirq_end(true, 1);
  gov.note_softirq_end(false, 0);
  gov.note_softirq_end(true, 1);
  gov.note_softirq_end(true, 1);
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kNormal);
  gov.note_softirq_end(true, 1);  // third consecutive squeeze
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kOverloaded);
  ASSERT_FALSE(gov.transitions().empty());
  EXPECT_STREQ(gov.transitions().back().cause, "squeeze");
}

TEST(OverloadGovernorTest, ResidencyStreakEnters) {
  sim::Simulator sim;
  OverloadGovernor gov(sim, quick_governor_config(), /*max_backlog=*/100);
  gov.set_depth_probe([] { return std::size_t{0}; });
  for (int i = 0; i < 4; ++i) gov.note_softirq_end(false, /*residual=*/2);
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kOverloaded);
  EXPECT_STREQ(gov.transitions().back().cause, "residency");
}

TEST(OverloadGovernorTest, LivelockWatchdogFiresAndRecovers) {
  sim::Simulator sim;
  std::size_t depth = 90;
  OverloadGovernor gov(sim, quick_governor_config(), /*max_backlog=*/100);
  gov.set_depth_probe([&] { return depth; });
  gov.note_enqueue(depth);
  ASSERT_EQ(gov.state(), OverloadGovernor::State::kOverloaded);

  // Polls with zero deliveries while IRQs keep arriving: watchdog fires
  // at the configured poll count.
  gov.note_irq();
  for (int i = 0; i < 4; ++i) gov.note_poll();
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kOverloaded);
  gov.note_poll();
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kLivelocked);
  EXPECT_EQ(gov.livelocks(), 1u);

  // A delivery demotes livelock; with the backlog drained it recovers
  // all the way to normal.
  depth = 0;
  gov.note_delivery();
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kNormal);
  const auto& log = gov.transitions();
  ASSERT_GE(log.size(), 4u);
  EXPECT_STREQ(log[log.size() - 2].cause, "delivery_resumed");
  EXPECT_STREQ(log.back().cause, "recovered");
}

TEST(OverloadGovernorTest, NoLivelockWithoutInputPressure) {
  sim::Simulator sim;
  OverloadGovernor gov(sim, quick_governor_config(), /*max_backlog=*/100);
  gov.set_depth_probe([] { return std::size_t{90}; });
  gov.note_enqueue(90);
  ASSERT_EQ(gov.state(), OverloadGovernor::State::kOverloaded);
  // Zero deliveries but also zero IRQs/arrivals since the last one:
  // the receiver is idle-starved, not livelocked.
  for (int i = 0; i < 50; ++i) gov.note_poll();
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kOverloaded);
  EXPECT_EQ(gov.livelocks(), 0u);
}

TEST(OverloadGovernorTest, TransitionLogBounded) {
  sim::Simulator sim;
  auto cfg = quick_governor_config();
  cfg.max_transitions = 3;
  std::size_t depth = 0;
  OverloadGovernor gov(sim, cfg, /*max_backlog=*/100);
  gov.set_depth_probe([&] { return depth; });
  for (int i = 0; i < 5; ++i) {
    depth = 90;
    gov.note_enqueue(depth);
    depth = 0;
    gov.note_softirq_end(false, 0);
  }
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kNormal);
  EXPECT_EQ(gov.transitions().size(), 3u);
  EXPECT_EQ(gov.transitions_dropped(), 7u);
  EXPECT_EQ(gov.entries(), 5u);
  EXPECT_EQ(gov.exits(), 5u);
}

TEST(OverloadGovernorTest, DisabledGovernorNeverTransitions) {
  sim::Simulator sim;
  auto cfg = quick_governor_config();
  cfg.enabled = false;
  OverloadGovernor gov(sim, cfg, /*max_backlog=*/100);
  gov.note_enqueue(99);
  for (int i = 0; i < 10; ++i) gov.note_softirq_end(true, 5);
  EXPECT_EQ(gov.state(), OverloadGovernor::State::kNormal);
  EXPECT_TRUE(gov.transitions().empty());
}

// ------------------------------------------- host wiring and moderation

TEST(OverloadHostTest, ModerationStretchAppliedAndRestored) {
  harness::TestbedConfig cfg;
  cfg.coalesce = nic::CoalesceConfig{sim::microseconds(50), 64};
  harness::Testbed tb(cfg);
  auto& server = tb.server();
  ASSERT_EQ(server.nic().queue(0).coalesce().usecs, sim::microseconds(50));

  // Drive the governor directly (the soak drives it with real load).
  server.governor().note_enqueue(/*depth=*/1000);
  EXPECT_EQ(server.governor().state(),
            OverloadGovernor::State::kOverloaded);
  EXPECT_EQ(server.nic().queue(0).coalesce().usecs, sim::microseconds(200));

  server.governor().note_softirq_end(false, 0);  // backlogs are empty
  EXPECT_EQ(server.governor().state(), OverloadGovernor::State::kNormal);
  EXPECT_EQ(server.nic().queue(0).coalesce().usecs, sim::microseconds(50));
}

TEST(OverloadHostTest, ProcFileRendersStateAndTransitions) {
  harness::Testbed tb;
  auto& server = tb.server();
  std::string json = server.proc().read("prism/overload");
  EXPECT_NE(json.find("\"state\":\"normal\""), std::string::npos);
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);

  server.governor().note_enqueue(1000);
  json = server.proc().read("prism/overload");
  EXPECT_NE(json.find("\"state\":\"overloaded\""), std::string::npos);
  EXPECT_NE(json.find("\"cause\":\"depth\""), std::string::npos);
}

// --------------------------------------------------- ksoftirqd deferral

TEST(KsoftirqdTest, SqueezedRemainderRunsInKsoftirqd) {
  Pipeline p(NapiMode::kVanilla);
  p.cost.napi_budget = 128;
  p.feed(*p.source, 64 * 6);
  p.sim.run();
  EXPECT_EQ(p.deliveries.size(), 384u);
  EXPECT_GT(p.engine.ksoftirqd_deferrals(), 0u);
  EXPECT_GT(p.engine.ksoftirqd_runs(), 0u);
  EXPECT_TRUE(p.engine.idle());
}

TEST(KsoftirqdTest, TaskWorkNotStarvedDuringOverload) {
  // The starvation-avoidance semantics: with the deferral, a userspace
  // task scheduled while the receive path is saturated gets CPU time
  // interleaved with ksoftirqd; with the deferral disabled (the old
  // immediate re-raise), softirq chunks monopolize the CPU until the
  // whole burst drains.
  const auto run = [](bool deferral) {
    Pipeline p(NapiMode::kPrismBatch);
    p.cost.napi_budget = 128;
    p.engine.set_ksoftirqd(deferral);
    sim::Time task_done = 0;
    p.sim.schedule(sim::microseconds(50), [&] {
      p.cpu.run_task(sim::microseconds(5), [&] { task_done = p.sim.now(); });
    });
    p.feed(*p.source, 64 * 20);
    p.sim.run();
    EXPECT_EQ(p.deliveries.size(), 64u * 20u);
    EXPECT_GT(task_done, 0);
    const sim::Time last_delivery =
        std::max_element(p.deliveries.begin(), p.deliveries.end(),
                         [](const auto& a, const auto& b) {
                           return a.at < b.at;
                         })
            ->at;
    return std::pair<sim::Time, sim::Time>(task_done, last_delivery);
  };
  const auto [task_with, last_with] = run(true);
  const auto [task_without, last_without] = run(false);
  // Without deferral the task waits for the full drain; with it, the
  // task completes while packets are still being processed.
  EXPECT_GE(task_without, last_without);
  EXPECT_LT(task_with, last_with);
  EXPECT_LT(task_with, task_without);
}

TEST(KsoftirqdTest, IrqRaisedSoftirqTakesOverFromKsoftirqd) {
  // New work arriving while ksoftirqd is draining is serviced by the
  // ksoftirqd pass (napi_schedule sees in_softirq_) or by a fresh
  // softirq once it finishes — either way everything is delivered and
  // the engine returns to idle.
  Pipeline p(NapiMode::kPrismBatch);
  p.cost.napi_budget = 64;
  p.feed(*p.source, 64 * 4);
  p.sim.schedule(sim::microseconds(300), [&] { p.feed(*p.source, 64 * 4); });
  p.sim.run();
  EXPECT_EQ(p.deliveries.size(), 64u * 8u);
  EXPECT_GT(p.engine.ksoftirqd_runs(), 0u);
  EXPECT_TRUE(p.engine.idle());
}

// ------------------------------------------------ netdev_budget_usecs

TEST(TimeBudgetTest, TimeBudgetSqueezeCountedSeparately) {
  Pipeline p(NapiMode::kPrismBatch);
  p.cost.napi_budget = 1 << 20;  // packet budget effectively infinite
  p.cost.netdev_budget_usecs = sim::microseconds(20);
  p.feed(*p.source, 64 * 6);
  p.sim.run();
  EXPECT_EQ(p.deliveries.size(), 384u);
  EXPECT_GT(p.engine.time_budget_squeezes(), 0u);
  EXPECT_EQ(p.engine.budget_squeezes(), 0u);
  EXPECT_EQ(p.engine.time_squeezes(), p.engine.time_budget_squeezes() +
                                          p.engine.budget_squeezes());
}

TEST(TimeBudgetTest, PacketBudgetSqueezeCountedSeparately) {
  Pipeline p(NapiMode::kPrismBatch);
  p.cost.napi_budget = 64;  // squeezes on packets long before 2 ms
  p.feed(*p.source, 64 * 6);
  p.sim.run();
  EXPECT_EQ(p.deliveries.size(), 384u);
  EXPECT_GT(p.engine.budget_squeezes(), 0u);
  EXPECT_EQ(p.engine.time_budget_squeezes(), 0u);
  EXPECT_EQ(p.engine.time_squeezes(), p.engine.budget_squeezes());
}

TEST(TimeBudgetTest, DefaultTimeBudgetNeverFiresAtDefaultPacketBudget) {
  // 300 packets cost ~720 us < 2 ms: the kernel-default combination
  // squeezes on packets, never on time — existing time_squeeze semantics
  // are unchanged.
  Pipeline p(NapiMode::kVanilla);
  p.feed(*p.source, 64 * 10);
  p.sim.run();
  EXPECT_EQ(p.deliveries.size(), 640u);
  EXPECT_EQ(p.engine.time_budget_squeezes(), 0u);
}

}  // namespace
}  // namespace prism::kernel
