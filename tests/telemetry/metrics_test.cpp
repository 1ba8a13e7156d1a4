#include <gtest/gtest.h>

#include "fault/fault.h"
#include "net/flow.h"
#include "overlay/flow_cache.h"
#include "overlay/netns.h"
#include "telemetry/metrics.h"

namespace prism::telemetry {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, TracksValueAndHighWatermark) {
  Gauge g;
  g.set(5);
  g.set(12);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max_value(), 12);
  g.set(0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max_value(), 12);
}

TEST(RegistryTest, CounterRegistrationIsIdempotent) {
  // Binding a component twice must not count its member twice.
  Registry reg;
  Counter rx;
  reg.add("nic.rx_frames", rx);
  reg.add("nic.rx_frames", rx);
  rx.inc(10);
  ASSERT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counters()[0].value, 10u);
  EXPECT_EQ(reg.counter_value("nic.rx_frames"), 10u);
}

TEST(RegistryTest, SharedNameAggregatesAcrossComponents) {
  // Two components adding the same name (e.g. every UDP socket under
  // "sockets.") read back as one summed counter.
  Registry reg;
  Counter sock1;
  Counter sock2;
  reg.add("sockets.rcvbuf_enqueued", sock1);
  reg.add("sockets.rcvbuf_enqueued", sock2);
  sock1.inc(2);
  sock2.inc(3);
  EXPECT_EQ(reg.counter_value("sockets.rcvbuf_enqueued"), 5u);
  const auto cs = reg.counters();
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].value, 5u);
}

TEST(RegistryTest, SharedGaugeSumsLevelsAndKeepsTheLargestMark) {
  // Two bridge cells under one "depth" name: the levels add up, and the
  // high-water mark is the deeper of the two cells' marks.
  Registry reg;
  Gauge cell0;
  Gauge cell1;
  reg.add("overlay.br42.cell.depth", cell0);
  reg.add("overlay.br42.cell.depth", cell1);
  cell0.set(9);
  cell0.set(4);
  cell1.set(6);
  const auto gs = reg.gauges();
  ASSERT_EQ(gs.size(), 1u);
  EXPECT_EQ(gs[0].name, "overlay.br42.cell.depth");
  EXPECT_EQ(gs[0].value, 10);
  EXPECT_EQ(gs[0].max_value, 9);
}

TEST(RegistryTest, CounterValueUnknownNameIsZero) {
  Registry reg;
  Counter known;
  reg.add("known", known);
  known.inc(9);
  EXPECT_EQ(reg.counter_value("known"), 9u);
  EXPECT_EQ(reg.counter_value("unknown"), 0u);
}

TEST(RegistryTest, SnapshotsPreserveRegistrationOrder) {
  Registry reg;
  Counter zulu;
  Counter alpha;
  Gauge mike;
  Gauge bravo;
  reg.add("zulu", zulu);
  reg.add("alpha", alpha);
  reg.add("mike", mike);
  reg.add("bravo", bravo);
  zulu.inc(1);
  alpha.inc(2);
  mike.set(3);
  bravo.set(4);

  const auto cs = reg.counters();
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].name, "zulu");
  EXPECT_EQ(cs[0].value, 1u);
  EXPECT_EQ(cs[1].name, "alpha");
  EXPECT_EQ(cs[1].value, 2u);

  const auto gs = reg.gauges();
  ASSERT_EQ(gs.size(), 2u);
  EXPECT_EQ(gs[0].name, "mike");
  EXPECT_EQ(gs[0].value, 3);
  EXPECT_EQ(gs[1].name, "bravo");
  EXPECT_EQ(gs[1].value, 4);
}

TEST(RegistryTest, GaugesAreIdempotentToo) {
  Registry reg;
  Gauge depth;
  reg.add("ring_depth", depth);
  reg.add("ring_depth", depth);
  depth.set(7);
  const auto gs = reg.gauges();
  ASSERT_EQ(gs.size(), 1u);
  EXPECT_EQ(gs[0].value, 7);
  EXPECT_EQ(gs[0].max_value, 7);
}

TEST(RegistryTest, ComponentResetZeroesWhatTheRegistryReads) {
  // The registry reads the components' own counters, so a component's
  // reset() is visible through every name it registered.
  Registry reg;
  overlay::FlowCache cache;
  cache.set_enabled(true);
  cache.bind_telemetry(reg, "flowcache.");
  fault::DropLedger drops;
  drops.bind_telemetry(reg, "faults.");

  net::FiveTuple flow;
  flow.src_port = 1000;
  flow.protocol = net::IpProto::kUdp;
  overlay::Netns ns("c", net::Ipv4Addr::of(172, 17, 0, 2),
                    net::MacAddr::make(2), /*is_container=*/true);
  EXPECT_EQ(cache.lookup(flow, 42), nullptr);
  cache.insert(flow, 42, &ns, 1, cache.generation());
  EXPECT_NE(cache.lookup(flow, 42), nullptr);
  cache.invalidate();
  drops.record(fault::DropReason::kRingFull, 0);
  drops.record(fault::DropReason::kRingFull, 2);
  drops.record(fault::DropReason::kChecksum, 1);

  EXPECT_EQ(reg.counter_value("flowcache.hits"), 1u);
  EXPECT_EQ(reg.counter_value("flowcache.misses"), 1u);
  EXPECT_EQ(reg.counter_value("flowcache.insertions"), 1u);
  EXPECT_EQ(reg.counter_value("flowcache.invalidations"), 1u);
  EXPECT_EQ(reg.counter_value("faults.drop.ring_full"), 2u);
  EXPECT_EQ(reg.counter_value("faults.drop.checksum"), 1u);

  cache.reset();
  drops.reset();
  for (const auto& c : reg.counters()) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
}

}  // namespace
}  // namespace prism::telemetry
