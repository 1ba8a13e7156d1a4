// Tests of the NET_RX engine against the paper's published behaviour:
// the exact device polling orders of Fig. 6, batch-level preemption, and
// the latency ordering of the three modes.
#include "kernel/net_rx_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "test_pipeline.h"

namespace prism::kernel {
namespace {

using testing::Delivery;
using testing::Pipeline;

std::vector<std::string> prefix(const std::vector<std::string>& v,
                                std::size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(n, v.size()))};
}

/// Devices in poll order, e.g. {"eth", "br", "eth", "veth", ...}.
std::vector<std::string> device_order(const Pipeline& p) {
  std::vector<std::string> out;
  for (const auto& row : p.trace.polls(0)) out.push_back(row.device);
  return out;
}

// ------------------------------------------------------------- Fig. 6a

TEST(NetRxEngineTest, VanillaDeviceOrderMatchesFig6a) {
  Pipeline p(NapiMode::kVanilla);
  p.feed(p.eth, 64 * 5);
  p.sim.run();
  // Paper Fig. 6a: eth, br, eth, veth, br, eth, ... — the third stage
  // (veth) of batch N is delayed behind the first stage (eth) of batch
  // N+1.
  const auto order = device_order(p);
  ASSERT_GE(order.size(), 9u);
  EXPECT_EQ(prefix(order, 9),
            (std::vector<std::string>{"eth", "br", "eth", "veth", "br",
                                      "eth", "veth", "br", "eth"}));
}

TEST(NetRxEngineTest, VanillaSteadyStatePollListMatchesFig6a) {
  Pipeline p(NapiMode::kVanilla);
  p.feed(p.eth, 64 * 10);
  p.sim.run();
  const auto rec = p.trace.polls(0);
  ASSERT_GE(rec.size(), 6u);
  // Rows 4-6 of Fig. 6a (steady state): veth -> [br, eth],
  // br -> [eth, veth], eth -> [veth, br, eth].
  EXPECT_EQ(rec[3].device, "veth");
  EXPECT_EQ(rec[3].poll_list, (std::vector<std::string>{"br", "eth"}));
  EXPECT_EQ(rec[4].device, "br");
  EXPECT_EQ(rec[4].poll_list, (std::vector<std::string>{"eth", "veth"}));
  EXPECT_EQ(rec[5].device, "eth");
  EXPECT_EQ(rec[5].poll_list,
            (std::vector<std::string>{"veth", "br", "eth"}));
}

// ------------------------------------------------------------- Fig. 6b

TEST(NetRxEngineTest, PrismBatchHighPriorityOrderMatchesFig6b) {
  Pipeline p(NapiMode::kPrismBatch);
  p.feed(p.eth_high, 64 * 5);
  p.sim.run();
  // Paper Fig. 6b: eth, br, veth, eth, br, veth, ... — each batch is
  // fully processed through all stages before the next batch is fetched.
  const auto order = device_order(p);
  ASSERT_GE(order.size(), 9u);
  EXPECT_EQ(prefix(order, 9),
            (std::vector<std::string>{"eth", "br", "veth", "eth", "br",
                                      "veth", "eth", "br", "veth"}));
}

TEST(NetRxEngineTest, PrismBatchPollListMatchesFig6b) {
  Pipeline p(NapiMode::kPrismBatch);
  p.feed(p.eth_high, 64 * 5);
  p.sim.run();
  const auto rec = p.trace.polls(0);
  ASSERT_GE(rec.size(), 4u);
  // Fig. 6b rows 1-4: eth -> [br, eth], br -> [veth, eth], veth -> [eth],
  // eth -> [br, eth].
  EXPECT_EQ(rec[0].device, "eth");
  EXPECT_EQ(rec[0].poll_list, (std::vector<std::string>{"br", "eth"}));
  EXPECT_EQ(rec[1].device, "br");
  EXPECT_EQ(rec[1].poll_list, (std::vector<std::string>{"veth", "eth"}));
  EXPECT_EQ(rec[2].device, "veth");
  EXPECT_EQ(rec[2].poll_list, (std::vector<std::string>{"eth"}));
  EXPECT_EQ(rec[3].device, "eth");
  EXPECT_EQ(rec[3].poll_list, (std::vector<std::string>{"br", "eth"}));
}

TEST(NetRxEngineTest, PollSpansExportPacketsAndPollList) {
  Pipeline p(NapiMode::kPrismBatch);
  p.feed(p.eth_high, 64 * 5);
  p.sim.run();
  // Fig. 6b row 1 as a Chrome span: eth polled a full batch and left
  // [br, eth]. The poll's service time is the span's dur, and only that.
  const std::string json = p.trace.export_chrome_trace();
  EXPECT_NE(json.find("\"name\":\"eth\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"packets\":64,"
                      "\"poll_list\":[\"br\",\"eth\"]}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("stage_ns"), std::string::npos) << json;
  // The last poll drains the list; its span still carries it.
  EXPECT_NE(json.find("\"poll_list\":[]"), std::string::npos) << json;
}

TEST(NetRxEngineTest, ATracerAttachedLaterResolvesItsOwnNames) {
  Pipeline p(NapiMode::kPrismBatch);
  std::optional<telemetry::SpanTracer> tracer(std::in_place);
  p.engine.set_span_tracer(&*tracer, 0);
  p.feed(p.eth_high, 64 * 2);
  p.sim.run();
  ASSERT_FALSE(tracer->polls(0).empty());

  // A second tracer at the first one's address, whose low ids name other
  // things: ids resolved in the first tracer would read as "pad*" here.
  tracer.emplace();
  for (const char* pad : {"pad0", "pad1", "pad2", "pad3", "pad4"}) {
    tracer->intern(pad);
  }
  p.engine.set_span_tracer(&*tracer, 0);
  p.feed(p.eth_high, 64 * 5);
  p.sim.run();
  const auto rec = tracer->polls(0);
  ASSERT_GE(rec.size(), 4u);
  EXPECT_EQ(rec[0].device, "eth");
  EXPECT_EQ(rec[0].poll_list, (std::vector<std::string>{"br", "eth"}));
  EXPECT_EQ(rec[1].device, "br");
  EXPECT_EQ(rec[1].poll_list, (std::vector<std::string>{"veth", "eth"}));
  EXPECT_EQ(rec[2].device, "veth");
  EXPECT_EQ(rec[2].poll_list, (std::vector<std::string>{"eth"}));
  EXPECT_NE(tracer->export_chrome_trace().find(
                "\"args\":{\"packets\":64,"
                "\"poll_list\":[\"br\",\"eth\"]}"),
            std::string::npos);
}

TEST(NetRxEngineTest, PrismLowPriorityBehavesLikeVanillaOrder) {
  // With only low-priority traffic, PRISM's single list degenerates to
  // tail-enqueue everywhere: the interleaved order persists — PRISM's
  // streamlining is driven by the priority, not the list structure alone.
  Pipeline p(NapiMode::kPrismBatch);
  p.feed(p.eth, 64 * 5);
  p.sim.run();
  const auto order = device_order(p);
  ASSERT_GE(order.size(), 6u);
  EXPECT_EQ(prefix(order, 6),
            (std::vector<std::string>{"eth", "br", "eth", "veth", "br",
                                      "eth"}));
}

// -------------------------------------------------------- PRISM-sync

TEST(NetRxEngineTest, PrismSyncOnlyPollsTheSourceDevice) {
  Pipeline p(NapiMode::kPrismSync);
  p.feed(p.eth_high, 64 * 3);
  p.sim.run();
  for (const auto& dev : device_order(p)) {
    EXPECT_EQ(dev, "eth");
  }
  EXPECT_EQ(p.deliveries.size(), 64u * 3);
}

TEST(NetRxEngineTest, PrismSyncQueuesStayEmpty) {
  Pipeline p(NapiMode::kPrismSync);
  p.feed(p.eth_high, 64);
  p.sim.run();
  EXPECT_TRUE(p.br.low_queue.empty());
  EXPECT_TRUE(p.br.high_queue.empty());
  EXPECT_TRUE(p.veth.low_queue.empty());
  EXPECT_TRUE(p.veth.high_queue.empty());
}

// ------------------------------------------------------ conservation

class ConservationTest
    : public ::testing::TestWithParam<std::tuple<NapiMode, bool, int>> {};

TEST_P(ConservationTest, EveryPacketIsDeliveredExactlyOnce) {
  const auto [mode, high, n] = GetParam();
  Pipeline p(mode);
  p.feed(high ? p.eth_high : p.eth, n);
  p.sim.run();
  EXPECT_EQ(p.deliveries.size(), static_cast<std::size_t>(n));
  EXPECT_TRUE(p.engine.idle());
  EXPECT_TRUE(p.cpu.idle());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ConservationTest,
    ::testing::Combine(::testing::Values(NapiMode::kVanilla,
                                         NapiMode::kPrismBatch,
                                         NapiMode::kPrismSync),
                       ::testing::Bool(),
                       ::testing::Values(1, 63, 64, 65, 300, 1000)));

// ---------------------------------------------------- latency ordering

sim::Time first_delivery(NapiMode mode, bool high, int n) {
  Pipeline p(mode);
  p.feed(high ? p.eth_high : p.eth, n);
  p.sim.run();
  sim::Time first = p.deliveries.front().at;
  for (const auto& d : p.deliveries) first = std::min(first, d.at);
  return first;
}

sim::Time last_delivery(NapiMode mode, bool high, int n) {
  Pipeline p(mode);
  p.feed(high ? p.eth_high : p.eth, n);
  p.sim.run();
  sim::Time last = 0;
  for (const auto& d : p.deliveries) last = std::max(last, d.at);
  return last;
}

TEST(NetRxEngineTest, FirstPacketLatencySyncBeatsBatchBeatsVanilla) {
  // Paper §III-B / Fig. 5: sync delivers the first packet after one
  // run-to-completion pass; batch after three single-batch polls; vanilla
  // after the interleaved schedule.
  const int n = 64 * 3;
  const auto sync = first_delivery(NapiMode::kPrismSync, true, n);
  const auto batch = first_delivery(NapiMode::kPrismBatch, true, n);
  const auto vanilla = first_delivery(NapiMode::kVanilla, true, n);
  EXPECT_LT(sync, batch);
  EXPECT_LT(batch, vanilla);
}

TEST(NetRxEngineTest, ThroughputVanillaCompletesBeforeSync) {
  // Sync mode gives up batch amortization: total completion time for a
  // large burst is longer than vanilla's (Fig. 8's throughput gap).
  const int n = 64 * 10;
  const auto vanilla = last_delivery(NapiMode::kVanilla, true, n);
  const auto sync = last_delivery(NapiMode::kPrismSync, true, n);
  EXPECT_LT(vanilla, sync);
}

// ------------------------------------------------- batch preemption

TEST(NetRxEngineTest, HighPriorityPreemptsQueuedLowPriorityBatches) {
  // Pre-load the bridge with low-priority packets, then deliver one
  // high-priority packet through it: the high packet must complete before
  // the queued lows that were there first (head-of-line unblocking).
  Pipeline p(NapiMode::kPrismBatch);
  // 128 low-priority packets directly in br's low queue.
  for (int i = 0; i < 128; ++i) {
    auto skb = alloc_skb();
    skb->priority = 0;
    p.br.low_queue.push_back(std::move(skb));
  }
  p.engine.napi_schedule(p.br, false);
  // One high-priority packet via the source.
  p.feed(p.eth_high, 1);
  p.sim.run();
  ASSERT_EQ(p.deliveries.size(), 129u);
  // Find the delivery time of the high packet and of the last low packet
  // of the *first* batch.
  sim::Time high_at = -1;
  std::vector<sim::Time> lows;
  for (const auto& d : p.deliveries) {
    if (d.high) {
      high_at = d.at;
    } else {
      lows.push_back(d.at);
    }
  }
  ASSERT_NE(high_at, -1);
  std::sort(lows.begin(), lows.end());
  // The high-priority packet is not blocked behind both low batches: at
  // least one full batch (64 packets) of lows completes after it.
  EXPECT_LT(high_at, lows[static_cast<std::size_t>(lows.size()) - 64]);
}

TEST(NetRxEngineTest, VanillaHighPrioritySuffersHeadOfLineBlocking) {
  // Same scenario in vanilla mode: the "high" packet (priority ignored)
  // waits behind every earlier low packet.
  Pipeline p(NapiMode::kVanilla);
  for (int i = 0; i < 128; ++i) {
    auto skb = alloc_skb();
    p.br.low_queue.push_back(std::move(skb));
  }
  p.engine.napi_schedule(p.br, false);
  p.feed(p.eth_high, 1);
  p.sim.run();
  sim::Time high_at = -1;
  std::vector<sim::Time> lows;
  for (const auto& d : p.deliveries) {
    if (d.high) {
      high_at = d.at;
    } else {
      lows.push_back(d.at);
    }
  }
  ASSERT_NE(high_at, -1);
  std::sort(lows.begin(), lows.end());
  EXPECT_GT(high_at, lows.back() - 1);  // delivered last (or tied)
}

// ------------------------------------------------------------ budget

TEST(NetRxEngineTest, BudgetBoundsSoftirqInvocations) {
  CostModel cost;
  cost.napi_budget = 128;  // two polls per invocation
  Pipeline p(NapiMode::kVanilla, cost);
  p.feed(p.eth, 64 * 6);
  p.sim.run();
  // 6 eth batches + 6 br + 6 veth = 18 polls, at most 2 per softirq.
  EXPECT_GE(p.engine.softirq_invocations(), 9u);
  EXPECT_EQ(p.deliveries.size(), 64u * 6);
}

TEST(NetRxEngineTest, NapiCompleteFiresOnceDrained) {
  Pipeline p(NapiMode::kVanilla);
  p.feed(p.eth, 100);
  p.sim.run();
  EXPECT_EQ(p.eth.completes, 1);
  EXPECT_FALSE(p.eth.scheduled);
}

TEST(NetRxEngineTest, RescheduleAfterDrainWorks) {
  Pipeline p(NapiMode::kPrismBatch);
  p.feed(p.eth_high, 10);
  p.sim.run();
  EXPECT_EQ(p.deliveries.size(), 10u);
  p.feed(p.eth_high, 10);
  p.sim.run();
  EXPECT_EQ(p.deliveries.size(), 20u);
  EXPECT_EQ(p.eth_high.completes, 2);
}

// -------------------------------------------------------- mode switch

TEST(NetRxEngineTest, SetModeWhileIdleWorks) {
  Pipeline p(NapiMode::kVanilla);
  p.engine.set_mode(NapiMode::kPrismSync);
  EXPECT_EQ(p.engine.mode(), NapiMode::kPrismSync);
}

TEST(NetRxEngineTest, SetModeWhileBusyThrows) {
  Pipeline p(NapiMode::kVanilla);
  p.eth.pending = 64;
  p.engine.napi_schedule(p.eth, false);
  // Softirq raised but not yet run: the engine is not idle.
  EXPECT_THROW(p.engine.set_mode(NapiMode::kPrismBatch), std::logic_error);
  p.sim.run();
  EXPECT_NO_THROW(p.engine.set_mode(NapiMode::kPrismBatch));
}

TEST(NetRxEngineTest, ModeNamesAreStable) {
  EXPECT_STREQ(to_string(NapiMode::kVanilla), "vanilla");
  EXPECT_STREQ(to_string(NapiMode::kPrismBatch), "prism-batch");
  EXPECT_STREQ(to_string(NapiMode::kPrismSync), "prism-sync");
  EXPECT_STREQ(to_string(NapiMode::kPrismQueues), "prism-queues");
}

// ------------------------------------------- prism-queues ablation mode

TEST(NetRxEngineTest, QueuesModeKeepsInterleavedOrder) {
  // Dual queues without head insertion: the device order remains the
  // interleaved single-list order even for high-priority packets.
  Pipeline p(NapiMode::kPrismQueues);
  p.feed(p.eth_high, 64 * 5);
  p.sim.run();
  const auto order = device_order(p);
  ASSERT_GE(order.size(), 6u);
  EXPECT_EQ(prefix(order, 6),
            (std::vector<std::string>{"eth", "br", "eth", "veth", "br",
                                      "eth"}));
  EXPECT_EQ(p.deliveries.size(), 64u * 5);
}

TEST(NetRxEngineTest, QueuesModeStillBypassesLowQueueBacklog) {
  // The dual-queue half of PRISM on its own still jumps queued
  // low-priority packets at each device, just without reordering the
  // poll list.
  Pipeline p(NapiMode::kPrismQueues);
  for (int i = 0; i < 128; ++i) {
    auto skb = alloc_skb();
    p.br.low_queue.push_back(std::move(skb));
  }
  p.engine.napi_schedule(p.br, false);
  p.feed(p.eth_high, 1);
  p.sim.run();
  ASSERT_EQ(p.deliveries.size(), 129u);
  sim::Time high_at = -1;
  std::vector<sim::Time> lows;
  for (const auto& d : p.deliveries) {
    if (d.high) {
      high_at = d.at;
    } else {
      lows.push_back(d.at);
    }
  }
  std::sort(lows.begin(), lows.end());
  // Not last: at least half a batch of lows completes after it.
  EXPECT_LT(high_at, lows[lows.size() - 32]);
}

TEST(NetRxEngineTest, BatchPreemptionBeatsQueuesOnlyForFirstDelivery) {
  auto first_high = [](NapiMode mode) {
    Pipeline p(mode);
    for (int i = 0; i < 128; ++i) {
      p.br.low_queue.push_back(alloc_skb());
    }
    p.engine.napi_schedule(p.br, false);
    p.feed(p.eth_high, 1);
    p.sim.run();
    for (const auto& d : p.deliveries) {
      if (d.high) return d.at;
    }
    return sim::Time{-1};
  };
  const auto batch = first_high(NapiMode::kPrismBatch);
  const auto queues = first_high(NapiMode::kPrismQueues);
  ASSERT_NE(batch, -1);
  ASSERT_NE(queues, -1);
  EXPECT_LT(batch, queues);
}

}  // namespace
}  // namespace prism::kernel
