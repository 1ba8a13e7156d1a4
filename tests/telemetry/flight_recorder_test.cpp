#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <vector>

#include "kernel/probe.h"
#include "kernel/skb.h"
#include "net/flow.h"
#include "net/ip.h"
#include "net/packet.h"
#include "sim/time.h"
#include "telemetry/anomaly.h"

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

/// An skb carrying a parsed UDP frame of flow tuple(src_port) at `level`.
kernel::SkbPtr parsed_skb(std::uint16_t src_port, int level) {
  const net::FiveTuple t = tuple(src_port);
  net::FrameSpec spec;
  spec.src_mac = net::MacAddr::make(0x101);
  spec.dst_mac = net::MacAddr::make(0x202);
  spec.src_ip = t.src_ip;
  spec.dst_ip = t.dst_ip;
  spec.src_port = t.src_port;
  spec.dst_port = t.dst_port;
  const std::vector<std::uint8_t> payload(32, 0x5a);
  kernel::SkbPtr skb = kernel::alloc_skb();
  skb->buf = net::build_udp_frame(spec, payload);
  skb->parsed = net::parse_frame(skb->buf.bytes());
  skb->priority = level;
  return skb;
}

TEST(FlightRecorderTest, SamplerPinsHighClassesAndIsDeterministic) {
  FlightRecorder rec;  // defaults: 1-in-64, pin_level 1
  // Pinned classes trace regardless of the hash slot.
  for (std::uint16_t p = 1; p < 200; ++p) {
    EXPECT_TRUE(rec.should_trace(tuple(p), 1));
    EXPECT_TRUE(rec.should_trace(tuple(p), 3));
  }
  // Class-0 decisions are a pure flow-hash function: stable across
  // repeated queries and across recorder instances with the same config
  // (the determinism the cross-thread-count snapshots depend on).
  FlightRecorder other;
  int traced = 0;
  for (std::uint16_t p = 1; p < 1000; ++p) {
    const bool a = rec.should_trace(tuple(p), 0);
    EXPECT_EQ(a, rec.should_trace(tuple(p), 0));
    EXPECT_EQ(a, other.should_trace(tuple(p), 0));
    traced += a ? 1 : 0;
  }
  // 1-in-64 sampling over ~1000 distinct flows: some but far from all.
  EXPECT_GT(traced, 0);
  EXPECT_LT(traced, 250);
}

TEST(FlightRecorderTest, SamplePeriodRoundsUpToPowerOfTwo) {
  FlightRecorder rec;
  FlightRecorderConfig cfg;
  cfg.sample_period = 48;
  rec.configure(cfg);
  EXPECT_EQ(rec.config().sample_period, 64u);
  cfg.sample_period = 0;  // clamps to 1 = trace everything
  rec.configure(cfg);
  EXPECT_EQ(rec.config().sample_period, 1u);
  for (std::uint16_t p = 1; p < 64; ++p) {
    EXPECT_TRUE(rec.should_trace(tuple(p), 0));
  }
}

TEST(FlightRecorderTest, DisarmedTracesNothingButKeepsConfig) {
  FlightRecorder rec;
  FlightRecorderConfig cfg;
  cfg.sample_period = 1;
  rec.configure(cfg);
  rec.set_armed(false);
  EXPECT_FALSE(rec.armed());
  EXPECT_FALSE(rec.should_trace(tuple(1), 3));
  rec.set_armed(true);
  EXPECT_TRUE(rec.should_trace(tuple(1), 0));
  EXPECT_EQ(rec.config().sample_period, 1u);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndCountsEverything) {
  FlightRecorder rec;
  FlightRecorderConfig cfg;
  cfg.ring_capacity = 4;
  rec.configure(cfg);
  for (int i = 0; i < 6; ++i) {
    rec.on_enqueue(tuple(1), 2, 0, i, -1, /*at=*/i);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.overwritten(), 2u);
  // Oldest-first view starts at the 3rd push; tail(2) is the newest two.
  EXPECT_EQ(rec.at(0).at, 2);
  EXPECT_EQ(rec.at(3).at, 5);
  const auto t = rec.tail(2);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].at, 4);
  EXPECT_EQ(t[1].at, 5);
  // Asking for more than retained returns exactly what is retained.
  EXPECT_EQ(rec.tail(100).size(), 4u);
}

TEST(FlightRecorderTest, StampPointsRecordFaithfulFields) {
  FlightRecorder rec;
  rec.on_ring_arrival(tuple(1), 2, /*arrived=*/100, /*dequeued=*/600);
  rec.on_enqueue(tuple(1), 3, 2, /*depth=*/7, /*head_level=*/0, 700);
  rec.on_dequeue(tuple(1), 3, 2, /*wait=*/250, /*head=*/0, 950);
  rec.on_drop(tuple(1), 4, 2, /*reason=*/1, 1000);
  rec.on_deliver(tuple(1), 2, /*e2e=*/900, 1000);
  ASSERT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.at(0).kind, FlightEventKind::kRingArrival);
  EXPECT_EQ(rec.at(0).stage, 1);
  EXPECT_EQ(rec.at(0).wait_ns, 500);
  EXPECT_EQ(rec.at(0).head_level, -1);  // FIFO ring carries no classes
  EXPECT_EQ(rec.at(1).kind, FlightEventKind::kEnqueue);
  EXPECT_EQ(rec.at(1).depth, 7);
  EXPECT_EQ(rec.at(1).head_level, 0);
  EXPECT_EQ(rec.at(2).kind, FlightEventKind::kDequeue);
  EXPECT_EQ(rec.at(2).wait_ns, 250);
  EXPECT_EQ(rec.at(3).kind, FlightEventKind::kDrop);
  EXPECT_EQ(rec.at(3).drop_reason, 1);
  EXPECT_EQ(rec.at(4).kind, FlightEventKind::kDeliver);
  EXPECT_EQ(rec.at(4).stage, 4);
  EXPECT_EQ(rec.at(4).wait_ns, 900);
}

TEST(FlightRecorderTest, DequeueAndRingObservationsFeedTheAnomalyBank) {
  // The host's packet probe forwards the recorder's stage waits to the
  // anomaly bank.
  FlightRecorder rec;
  AnomalyBank bank;  // default config: inversion detector armed, T=100us
  kernel::PacketProbe probe;
  probe.recorder = &rec;
  probe.anomalies = &bank;
  probe.prism_mode = true;
  // High class queued 200us behind class 0: queue inversion.
  kernel::SkbPtr queued = parsed_skb(1, /*level=*/2);
  queued->traced = true;
  queued->observed_class = 2;
  queued->ts.stage2_done = sim::microseconds(100);
  queued->head_class_at_enqueue = 0;
  probe.stage_dequeue(*queued, 3, sim::microseconds(300));
  EXPECT_EQ(bank.fired(AnomalyKind::kQueueInversion), 1u);
  // High class stuck 150us in the priority-blind ring: ring inversion.
  kernel::SkbPtr arriving = parsed_skb(2, /*level=*/1);
  probe.ring_arrival(*arriving, *arriving->parsed, nullptr, /*arrived=*/0,
                     /*dequeued=*/sim::microseconds(150));
  EXPECT_TRUE(arriving->traced);  // pinned class
  EXPECT_EQ(bank.fired(AnomalyKind::kRingInversion), 1u);
  EXPECT_EQ(bank.max_inversion_wait_ns(), sim::microseconds(200));
  EXPECT_EQ(bank.worst_inversion_flow().src_port, 1);
  EXPECT_EQ(rec.size(), 2u);
}

TEST(FlightRecorderTest, ResetClearsRingKeepsConfig) {
  FlightRecorder rec;
  FlightRecorderConfig cfg;
  cfg.ring_capacity = 8;
  cfg.sample_period = 16;
  rec.configure(cfg);
  rec.on_deliver(tuple(1), 1, 100, 100);
  rec.reset();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.overwritten(), 0u);
  EXPECT_EQ(rec.config().ring_capacity, 8u);
  EXPECT_EQ(rec.config().sample_period, 16u);
  EXPECT_TRUE(rec.armed());
}

}  // namespace
}  // namespace prism::telemetry
