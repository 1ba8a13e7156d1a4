#include "telemetry/flow_table.h"

#include <gtest/gtest.h>

#include "json_check.h"
#include "net/flow.h"
#include "net/ip.h"

namespace prism::telemetry {
namespace {

net::FiveTuple tuple(std::uint16_t src_port) {
  net::FiveTuple t;
  t.src_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  t.dst_ip = net::Ipv4Addr::of(10, 0, 0, 2);
  t.src_port = src_port;
  t.dst_port = 9000;
  t.protocol = net::IpProto::kUdp;
  return t;
}

TEST(FlowTableTest, AccumulatesPerFlow) {
  FlowTable table;
  const auto f = tuple(1000);
  table.record(f, 100, 1, 5000, /*at=*/10);
  table.record(f, 200, 1, 7000, /*at=*/20);
  table.record_drop(f, 1, /*at=*/30);

  const auto* e = table.lookup(f);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packets, 2u);
  EXPECT_EQ(e->bytes, 300u);
  EXPECT_EQ(e->drops, 1u);
  EXPECT_EQ(e->level, 1);
  EXPECT_EQ(e->first_seen, 10);
  EXPECT_EQ(e->last_seen, 30);
  EXPECT_EQ(e->latency.count(), 2u);
  EXPECT_EQ(e->latency.max(), 7000);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, NegativeLatencySkipsHistogramOnly) {
  FlowTable table;
  const auto f = tuple(1000);
  table.record(f, 64, 0, /*e2e_ns=*/-1, /*at=*/5);
  const auto* e = table.lookup(f);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packets, 1u);
  EXPECT_EQ(e->latency.count(), 0u);
}

TEST(FlowTableTest, EntriesAreMostRecentFirst) {
  FlowTable table;
  table.record(tuple(1), 64, 0, 100, 1);
  table.record(tuple(2), 64, 0, 100, 2);
  table.record(tuple(3), 64, 0, 100, 3);
  table.record(tuple(1), 64, 0, 100, 4);  // touch 1 back to the front

  const auto entries = table.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->flow.src_port, 1);
  EXPECT_EQ(entries[1]->flow.src_port, 3);
  EXPECT_EQ(entries[2]->flow.src_port, 2);
}

TEST(FlowTableTest, EvictsLeastRecentlySeenAtCapacity) {
  FlowTable table(/*capacity=*/2);
  table.record(tuple(1), 64, 0, 100, 1);
  table.record(tuple(2), 64, 0, 100, 2);
  table.record(tuple(3), 64, 0, 100, 3);  // evicts flow 1

  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.lookup(tuple(1)), nullptr);
  ASSERT_NE(table.lookup(tuple(3)), nullptr);

  // The reused node must not leak the evicted flow's counters.
  const auto* fresh = table.lookup(tuple(3));
  EXPECT_EQ(fresh->packets, 1u);
  EXPECT_EQ(fresh->first_seen, 3);
  EXPECT_EQ(fresh->latency.count(), 1u);
}

TEST(FlowTableTest, RecordFrameDispatchesOnDelivered) {
  FlowTable table;
  const auto f = tuple(7);
  table.record_frame(f, 128, 0, 900, 1, /*delivered=*/true);
  table.record_frame(f, 128, 0, -1, 2, /*delivered=*/false);
  const auto* e = table.lookup(f);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packets, 1u);
  EXPECT_EQ(e->drops, 1u);
}

TEST(FlowTableTest, ExactlyCapacityFlowsNeverEvict) {
  FlowTable table(/*capacity=*/8);
  for (int i = 0; i < 8; ++i) {
    table.record(tuple(static_cast<std::uint16_t>(i + 1)), 64, 0, 100,
                 i + 1);
  }
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.evictions(), 0u);
  // Re-touching tracked flows at capacity must not evict either.
  for (int i = 0; i < 8; ++i) {
    table.record(tuple(static_cast<std::uint16_t>(i + 1)), 64, 0, 100,
                 100 + i);
  }
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.evictions(), 0u);
}

TEST(FlowTableTest, CapacityPlusOneEvictsExactlyOne) {
  FlowTable table(/*capacity=*/8);
  for (int i = 0; i < 9; ++i) {
    table.record(tuple(static_cast<std::uint16_t>(i + 1)), 64, 0, 100,
                 i + 1);
  }
  EXPECT_EQ(table.size(), 8u);
  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.lookup(tuple(1)), nullptr);  // oldest went first
  EXPECT_NE(table.lookup(tuple(2)), nullptr);
  EXPECT_NE(table.lookup(tuple(9)), nullptr);
}

TEST(FlowTableTest, AdversarialFloodStaysBoundedAndCountsEveryEviction) {
  // Many-flow flood: every packet is a distinct 5-tuple, the LRU's worst
  // case. The table must stay at capacity, count one eviction per excess
  // flow, and keep exactly the most recent `capacity` flows.
  constexpr std::size_t kCapacity = 16;
  constexpr int kFlood = 1000;
  FlowTable table(kCapacity);
  for (int i = 0; i < kFlood; ++i) {
    table.record(tuple(static_cast<std::uint16_t>(i + 1)), 64, i % 4, 100,
                 i + 1);
  }
  EXPECT_EQ(table.size(), kCapacity);
  EXPECT_EQ(table.evictions(), kFlood - kCapacity);
  for (int i = kFlood - static_cast<int>(kCapacity); i < kFlood; ++i) {
    EXPECT_NE(table.lookup(tuple(static_cast<std::uint16_t>(i + 1))),
              nullptr)
        << "recent flow " << i + 1 << " missing";
  }
  EXPECT_EQ(table.lookup(tuple(1)), nullptr);
  // A victim's flow returning after eviction starts from scratch.
  table.record(tuple(1), 64, 0, 100, kFlood + 1);
  const auto* back = table.lookup(tuple(1));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->packets, 1u);
  EXPECT_EQ(back->first_seen, kFlood + 1);
}

TEST(FlowTableTest, DisabledTableRecordsNothing) {
  FlowTable table;
  table.set_enabled(false);
  table.record(tuple(1), 64, 0, 100, 1);
  table.record_drop(tuple(1), 0, 2);
  EXPECT_EQ(table.size(), 0u);
  table.set_enabled(true);
  table.record(tuple(1), 64, 0, 100, 3);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableTest, ResetClearsEverything) {
  FlowTable table(/*capacity=*/2);
  table.record(tuple(1), 64, 0, 100, 1);
  table.record(tuple(2), 64, 0, 100, 2);
  table.record(tuple(3), 64, 0, 100, 3);
  table.reset();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.evictions(), 0u);
  EXPECT_EQ(table.lookup(tuple(2)), nullptr);
  EXPECT_EQ(table.capacity(), 2u);
}

TEST(FlowTableTest, JsonIsWellFormed) {
  FlowTable table;
  table.record(tuple(4242), 512, 3, 12345, 99);
  const std::string json = flow_table_json(table);
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"capacity\""), std::string::npos);
  EXPECT_NE(json.find("\"evictions\""), std::string::npos);
  EXPECT_NE(json.find("\"flows\""), std::string::npos);
  EXPECT_NE(json.find("4242"), std::string::npos);
}

}  // namespace
}  // namespace prism::telemetry
