// Packet-journey probe: the drop fan-out and frame classification every
// drop site relies on, the end of a traced journey at a drop, and the
// end-to-end guarantee that every traced ring arrival ends in exactly
// one deliver or drop event — including the drop sites that used to let
// journeys vanish (bridge FDB miss, backlog dead namespace).
#include "kernel/probe.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.h"
#include "harness/testbed.h"
#include "net/headers.h"
#include "net/packet.h"
#include "prism/priority_db.h"
#include "sim/simulator.h"
#include "telemetry/anomaly.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/latency.h"

namespace prism::kernel {
namespace {

using fault::DropReason;
using telemetry::FlightEventKind;

net::PacketBuf make_frame() {
  net::FrameSpec spec;
  spec.src_mac = net::MacAddr::make(0x101);
  spec.dst_mac = net::MacAddr::make(0x202);
  spec.src_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  spec.dst_ip = net::Ipv4Addr::of(10, 0, 0, 2);
  spec.src_port = 1111;
  spec.dst_port = 2222;
  const std::vector<std::uint8_t> payload(64, 0x5a);
  return net::build_udp_frame(spec, payload);
}

// ---------------------------------------------------------------- units

TEST(PacketProbeTest, DropFansOutToLedgerLatencyAndAnomalies) {
  sim::Simulator sim;
  fault::DropLedger drops;
  telemetry::LatencyLedger latency;
  telemetry::AnomalyBank anomalies;
  telemetry::AnomalyConfig cfg;
  cfg.drop_burst_threshold = 2;
  anomalies.arm(cfg);
  PacketProbe probe;
  probe.drops = &drops;
  probe.latency = &latency;
  probe.anomalies = &anomalies;
  probe.clock = &sim;

  probe.drop(DropReason::kBacklogFull, 2);
  probe.drop(DropReason::kWire, -1);  // clamps before the fan-out
  EXPECT_EQ(drops.count(DropReason::kBacklogFull, 2), 1u);
  EXPECT_EQ(drops.count(DropReason::kWire, 0), 1u);
  EXPECT_EQ(drops.total_drops(), 2u);
#if PRISM_TELEMETRY_ENABLED
  EXPECT_EQ(latency.dropped_in_flight(2), 1u);
  EXPECT_EQ(latency.dropped_in_flight(0), 1u);
  ASSERT_EQ(anomalies.fired(telemetry::AnomalyKind::kDropBurst), 1u);
  EXPECT_EQ(anomalies.findings()[0].level, 0);
  EXPECT_EQ(anomalies.findings()[0].head_level,
            static_cast<int>(DropReason::kWire));
#else
  // Drop accounting stays live; the telemetry fan-out compiles out.
  EXPECT_EQ(latency.dropped_in_flight(), 0u);
  EXPECT_EQ(anomalies.fired_total(), 0u);
#endif
}

TEST(PacketProbeTest, FrameDropsClassifyAsStageOneWould) {
  prism::PriorityDb db;
  db.add(net::Ipv4Addr::of(10, 0, 0, 2), 2222, 2);
  fault::DropLedger drops;
  PacketProbe probe;
  probe.drops = &drops;
  probe.priority_db = &db;
  probe.prism_mode = true;
  const auto frame = make_frame();

  probe.drop(DropReason::kRingFull, frame.bytes());
  EXPECT_EQ(drops.count(DropReason::kRingFull, 2), 1u);
  // Vanilla never classifies on the datapath: class 0.
  probe.prism_mode = false;
  probe.drop(DropReason::kRingFull, frame.bytes());
  EXPECT_EQ(drops.count(DropReason::kRingFull, 0), 1u);
  // No database: class 0.
  PacketProbe plain;
  plain.drops = &drops;
  plain.prism_mode = true;
  plain.drop(DropReason::kWire, frame.bytes());
  EXPECT_EQ(drops.count(DropReason::kWire, 0), 1u);
}

TEST(PacketProbeTest, SkbDropEndsATracedJourneyOncePerSkb) {
#if !PRISM_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out";
#endif
  fault::DropLedger drops;
  telemetry::FlightRecorder recorder;
  PacketProbe probe;
  probe.drops = &drops;
  probe.recorder = &recorder;
  SkbPtr skb = alloc_skb();
  skb->buf = make_frame();
  skb->parsed = net::parse_frame(skb->buf.bytes());
  skb->priority = 1;
  skb->observed_class = 1;

  // Untraced: counted, no journey event.
  probe.drop(DropReason::kFdbMiss, 1, *skb, /*stage=*/2, 100);
  EXPECT_EQ(recorder.size(), 0u);
  // A traced three-frame train: three ledger entries, one journey end.
  skb->traced = true;
  probe.drop(DropReason::kDeadNetns, 1, *skb, /*stage=*/3, 200,
             /*frames=*/3);
  EXPECT_EQ(drops.count(DropReason::kFdbMiss, 1), 1u);
  EXPECT_EQ(drops.count(DropReason::kDeadNetns, 1), 3u);
  ASSERT_EQ(recorder.size(), 1u);
  const telemetry::FlightEvent& e = recorder.at(0);
  EXPECT_EQ(e.kind, FlightEventKind::kDrop);
  EXPECT_EQ(e.stage, 3);
  EXPECT_EQ(e.level, 1);
  EXPECT_EQ(e.drop_reason, static_cast<int>(DropReason::kDeadNetns));
  EXPECT_EQ(e.at, 200);
  EXPECT_EQ(e.flow.dst_port, 2222);
}

// ------------------------------------------------------------ end to end

/// A PRISM-batch testbed carrying one class-1 flow (pinned by the flight
/// recorder, so every packet is traced) at 20 kpps for 2 ms: 40 packets
/// into one server container.
class TracedJourneyTest : public ::testing::Test {
 protected:
  static constexpr int kPackets = 40;
  static constexpr std::uint16_t kPort = 7000;

  void SetUp() override {
#if !PRISM_TELEMETRY_ENABLED
    GTEST_SKIP() << "telemetry compiled out";
#endif
    harness::TestbedConfig tc;
    tc.mode = NapiMode::kPrismBatch;
    tb_ = std::make_unique<harness::Testbed>(tc);
    auto& cli = tb_->add_client_container("cli");
    srv_ = &tb_->add_server_container("srv");
    tb_->server().udp_bind(*srv_, kPort);
    tb_->server().priority_db().add(srv_->ip(), kPort);
    for (int i = 0; i < kPackets; ++i) {
      tb_->client_sim().schedule_at(i * sim::microseconds(50), [this, &cli] {
        const std::vector<std::uint8_t> payload(32, 0xab);
        tb_->client().udp_send(cli, tb_->client().cpu(1), 100, srv_->ip(),
                               kPort, payload);
      });
    }
  }

  /// Runs a simulated second past the clock — past the last send — and
  /// checks the testbed drained.
  void drain() {
    tb_->run_until(tb_->client_sim().now() + sim::seconds(1));
    EXPECT_EQ(tb_->sim().pending_events(), 0u);
  }

  /// Asserts that the server's traced journeys all closed — every ring
  /// arrival is followed by exactly one deliver or drop — and returns the
  /// drop events.
  std::vector<telemetry::FlightEvent> closed_journeys() {
    const telemetry::FlightRecorder& rec = tb_->server().flight_recorder();
    EXPECT_EQ(rec.overwritten(), 0u);
    int arrivals = 0;
    int open = 0;
    std::vector<telemetry::FlightEvent> drops;
    for (std::size_t i = 0; i < rec.size(); ++i) {
      const telemetry::FlightEvent& e = rec.at(i);
      if (e.kind == FlightEventKind::kRingArrival) {
        ++arrivals;
        ++open;
      } else if (e.kind == FlightEventKind::kDeliver ||
                 e.kind == FlightEventKind::kDrop) {
        --open;
        EXPECT_GE(open, 0) << "journey ended twice at event " << i;
        if (e.kind == FlightEventKind::kDrop) drops.push_back(e);
      }
    }
    EXPECT_EQ(arrivals, kPackets);
    EXPECT_EQ(open, 0) << "traced journeys vanished";
    return drops;
  }

  std::unique_ptr<harness::Testbed> tb_;
  overlay::Netns* srv_ = nullptr;
};

TEST_F(TracedJourneyTest, FdbMissEndsTheJourney) {
  tb_->server_sim().schedule_at(sim::milliseconds(1), [this] {
    tb_->server().fdb(srv_->vni()).remove(srv_->mac());
  });
  drain();

  const auto drops = closed_journeys();
  const std::uint64_t misses =
      tb_->server().faults().drops.total(DropReason::kFdbMiss);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(drops.size(), misses);
  for (const auto& e : drops) {
    EXPECT_EQ(e.drop_reason, static_cast<int>(DropReason::kFdbMiss));
    EXPECT_EQ(e.stage, 2);
  }
}

TEST_F(TracedJourneyTest, BacklogDeadNetnsEndsTheJourney) {
  // Advance past 1 ms until a packet sits in the server's backlog — the
  // bridge has routed it into the container — then tear the container
  // down before stage 3 runs.
  tb_->run_until(sim::milliseconds(1));
  const auto backlogged = [this] {
    for (const auto& row : tb_->server().softnet_rows()) {
      if (row.backlog_len > 0) return true;
    }
    return false;
  };
  sim::Time t = tb_->server_sim().now();
  while (!backlogged() && t < sim::milliseconds(2)) {
    t += 50;
    tb_->run_until(t);
  }
  ASSERT_TRUE(backlogged()) << "no packet caught between stages 2 and 3";
  tb_->server().stop_container(*srv_);
  drain();

  const auto drops = closed_journeys();
  int stage3_dead = 0;
  for (const auto& e : drops) {
    if (e.stage == 3 &&
        e.drop_reason == static_cast<int>(DropReason::kDeadNetns)) {
      ++stage3_dead;
    }
  }
  EXPECT_GE(stage3_dead, 1);
  EXPECT_GE(tb_->server().faults().drops.total(DropReason::kDeadNetns),
            static_cast<std::uint64_t>(stage3_dead));
}

}  // namespace
}  // namespace prism::kernel
