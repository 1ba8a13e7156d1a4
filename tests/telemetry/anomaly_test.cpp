#include "telemetry/anomaly.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "json_check.h"
#include "net/flow.h"
#include "net/ip.h"
#include "sim/time.h"
#include "telemetry/flight_recorder.h"

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

constexpr sim::Duration kT = sim::microseconds(100);  // default inversion T

// The run-time off switch: a bank armed at its most sensitive settings
// and then disarmed fires nothing, and the proc document says so.
TEST(AnomalyTest, DisarmedBankNeverFires) {
  AnomalyBank bank;
  AnomalyConfig cfg;
  cfg.inversion_wait_ns = 1;
  cfg.slo_p99_ns = 1;
  cfg.drop_burst_threshold = 1;
  cfg.flap_threshold = 1;
  cfg.convergence_deadline_ns = 1;
  bank.arm(cfg);
  bank.set_armed(false);
  EXPECT_FALSE(bank.armed());
  bank.note_disruption(3, 0);
  bank.on_stage_wait(tuple(1), 3, 3, sim::milliseconds(10), 0, 0);
  bank.on_delivery(3, sim::milliseconds(10), 0);
  // A second delivery closes the first SLO window.
  bank.on_delivery(3, sim::milliseconds(10), sim::milliseconds(2));
  bank.on_drop(0, 0, 0);
  bank.on_governor_transition(0, 0, 1, "test");
  EXPECT_EQ(bank.fired_total(), 0u);
  EXPECT_TRUE(bank.findings().empty());
  const std::string json = anomalies_json(bank, nullptr);
  EXPECT_NE(json.find("\"armed\":false"), std::string::npos) << json;
}

TEST(AnomalyTest, QueueInversionNeedsLowerHeadAndThresholdWait) {
  AnomalyBank bank;  // default: inversion detector only
  // Below the wait threshold: no firing.
  bank.on_stage_wait(tuple(1), 3, 2, kT - 1, /*head=*/0, 1000);
  // Queued behind an equal or higher class: not an inversion.
  bank.on_stage_wait(tuple(1), 3, 2, kT, /*head=*/2, 2000);
  bank.on_stage_wait(tuple(1), 3, 2, kT, /*head=*/3, 3000);
  // Class 0 has nothing to invert against.
  bank.on_stage_wait(tuple(1), 3, 0, kT * 10, /*head=*/0, 4000);
  EXPECT_EQ(bank.fired_total(), 0u);

  bank.on_stage_wait(tuple(7), 3, 2, kT, /*head=*/1, 5000);
  EXPECT_EQ(bank.fired(AnomalyKind::kQueueInversion), 1u);
  ASSERT_EQ(bank.findings().size(), 1u);
  const AnomalyFinding& f = bank.findings()[0];
  EXPECT_EQ(f.kind, AnomalyKind::kQueueInversion);
  EXPECT_EQ(f.stage, 3);
  EXPECT_EQ(f.level, 2);
  EXPECT_EQ(f.head_level, 1);
  EXPECT_EQ(f.wait_ns, kT);
  EXPECT_EQ(bank.max_inversion_wait_ns(), kT);
  EXPECT_EQ(bank.worst_inversion_flow().src_port, 7);
}

TEST(AnomalyTest, RingInversionOnlyOnStageOneFifo) {
  AnomalyBank bank;
  // head -1 on a stage-2 queue means "was empty" — not an inversion.
  bank.on_stage_wait(tuple(1), 2, 2, kT * 2, /*head=*/-1, 1000);
  EXPECT_EQ(bank.fired_total(), 0u);
  // Same observation at stage 1 is the priority-blind NIC ring.
  bank.on_stage_wait(tuple(1), 1, 2, kT * 2, /*head=*/-1, 2000);
  EXPECT_EQ(bank.fired(AnomalyKind::kRingInversion), 1u);
  EXPECT_EQ(bank.fired(AnomalyKind::kQueueInversion), 0u);
}

TEST(AnomalyTest, SloBreachFiresOnWindowCloseForHighClassesOnly) {
  AnomalyBank bank;
  AnomalyConfig cfg;
  cfg.slo_p99_ns = sim::microseconds(50);
  cfg.slo_window_ns = sim::milliseconds(1);
  bank.arm(cfg);
  // Class-1 window full of 200us latencies...
  for (int i = 0; i < 100; ++i) {
    bank.on_delivery(1, sim::microseconds(200), i * 1000);
  }
  EXPECT_EQ(bank.fired(AnomalyKind::kSloBreach), 0u);  // window still open
  // ...fires once the next delivery closes the window.
  bank.on_delivery(1, sim::microseconds(1), sim::milliseconds(1) + 1);
  EXPECT_EQ(bank.fired(AnomalyKind::kSloBreach), 1u);
  ASSERT_FALSE(bank.findings().empty());
  const AnomalyFinding& f = bank.findings().back();
  EXPECT_EQ(f.kind, AnomalyKind::kSloBreach);
  EXPECT_EQ(f.level, 1);
  EXPECT_GE(f.value, static_cast<double>(sim::microseconds(200)));
  EXPECT_EQ(f.threshold, static_cast<double>(cfg.slo_p99_ns));

  // Class 0 never breaches: best-effort traffic has no SLO.
  AnomalyBank be;
  be.arm(cfg);
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 100; ++i) {
      be.on_delivery(0, sim::milliseconds(5),
                     w * sim::milliseconds(1) + i * 1000);
    }
  }
  be.on_delivery(0, 1, sim::milliseconds(10));
  EXPECT_EQ(be.fired(AnomalyKind::kSloBreach), 0u);
}

TEST(AnomalyTest, SloQuietWindowsNeverBreach) {
  AnomalyBank bank;
  AnomalyConfig cfg;
  cfg.slo_p99_ns = sim::milliseconds(10);
  bank.arm(cfg);
  for (int i = 0; i < 1000; ++i) {
    bank.on_delivery(2, sim::microseconds(20), i * sim::microseconds(5));
  }
  EXPECT_EQ(bank.fired(AnomalyKind::kSloBreach), 0u);
}

TEST(AnomalyTest, DropBurstFiresOncePerWindow) {
  AnomalyBank bank;
  AnomalyConfig cfg;
  cfg.drop_burst_threshold = 3;
  cfg.drop_burst_window_ns = sim::milliseconds(1);
  bank.arm(cfg);
  for (int i = 0; i < 5; ++i) bank.on_drop(/*reason=*/2, 0, i * 1000);
  EXPECT_EQ(bank.fired(AnomalyKind::kDropBurst), 1u);  // once, not thrice
  // A new window re-arms the detector.
  for (int i = 0; i < 3; ++i) {
    bank.on_drop(2, 0, sim::milliseconds(2) + i * 1000);
  }
  EXPECT_EQ(bank.fired(AnomalyKind::kDropBurst), 2u);
  // Two drops per window forever never reach the threshold.
  AnomalyBank sparse;
  sparse.arm(cfg);
  for (int w = 0; w < 10; ++w) {
    sparse.on_drop(2, 0, w * sim::milliseconds(1));
    sparse.on_drop(2, 0, w * sim::milliseconds(1) + 1);
  }
  EXPECT_EQ(sparse.fired(AnomalyKind::kDropBurst), 0u);
}

TEST(AnomalyTest, GovernorFlapFiresAtThresholdTransitions) {
  AnomalyBank bank;
  AnomalyConfig cfg;
  cfg.flap_threshold = 4;
  cfg.flap_window_ns = sim::milliseconds(10);
  bank.arm(cfg);
  for (int i = 0; i < 3; ++i) {
    bank.on_governor_transition(i * 1000, i % 2, (i + 1) % 2, "osc");
  }
  EXPECT_EQ(bank.fired(AnomalyKind::kGovernorFlap), 0u);
  bank.on_governor_transition(4000, 1, 0, "osc");
  EXPECT_EQ(bank.fired(AnomalyKind::kGovernorFlap), 1u);
  const AnomalyFinding& f = bank.findings().back();
  EXPECT_EQ(f.value, 4.0);
}

TEST(AnomalyTest, FindingsCapKeepsCountingAndFreezesEvidence) {
  FlightRecorder rec;
  for (int i = 0; i < 10; ++i) {
    rec.on_enqueue(tuple(1), 2, 1, i, -1, i);
  }
  AnomalyBank bank;
  AnomalyConfig cfg;
  cfg.max_findings = 1;
  cfg.freeze_events = 4;
  bank.arm(cfg);
  bank.set_recorder(&rec);
  bank.on_stage_wait(tuple(1), 3, 2, kT, 0, 1000);
  bank.on_stage_wait(tuple(1), 3, 2, kT * 2, 0, 2000);
  EXPECT_EQ(bank.fired(AnomalyKind::kQueueInversion), 2u);
  ASSERT_EQ(bank.findings().size(), 1u);  // capped, but still counted
  EXPECT_EQ(bank.findings_dropped(), 1u);
  // The retained finding carries the newest recorder slice as evidence.
  const auto& frozen = bank.findings()[0].frozen;
  ASSERT_EQ(frozen.size(), 4u);
  EXPECT_EQ(frozen.front().at, 6);
  EXPECT_EQ(frozen.back().at, 9);
  // The worst-inversion stats keep tracking past the cap.
  EXPECT_EQ(bank.max_inversion_wait_ns(), kT * 2);
}

TEST(AnomalyTest, JsonIsWellFormedAndNamesEveryKind) {
  FlightRecorder rec;
  rec.on_deliver(tuple(3), 1, 500, 500);
  AnomalyBank bank;
  bank.set_recorder(&rec);
  bank.on_stage_wait(tuple(3), 2, 1, kT, 0, 1000);
  const std::string json = anomalies_json(bank, &rec);
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  for (const char* key :
       {"queue_inversion", "ring_inversion", "slo_breach", "drop_burst",
        "governor_flap", "fired_total", "findings", "frozen", "recorder",
        "worst_inversion_flow"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// Evidence spans name their args after what they hold: the packet's
// class and the class it queued behind.
TEST(AnomalyTest, EvidenceTraceArgsAreLevelAndHeadLevel) {
  FlightRecorder rec;
  rec.on_dequeue(tuple(5), 3, 2, kT, /*head_level_at_enqueue=*/1, 5000);
  AnomalyBank bank;
  bank.set_recorder(&rec);
  bank.on_stage_wait(tuple(5), 3, 2, kT, /*head=*/1, 5000);
  ASSERT_EQ(bank.findings().size(), 1u);
  const std::string path =
      ::testing::TempDir() + "anomaly_test_evidence_trace.json";
  ASSERT_TRUE(export_anomaly_trace_file(bank, path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  const std::string json = ss.str();
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"args\":{\"level\":2,\"head_level\":1}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"packets\""), std::string::npos) << json;
}

// Evidence that queued behind class 0 and evidence that found its queue
// empty (-1) export different head levels, and a class-0 packet still
// exports its level.
TEST(AnomalyTest, EvidenceTraceTellsAnEmptyQueueFromClassZero) {
  FlightRecorder rec;
  rec.on_dequeue(tuple(5), 3, 1, kT, /*head_level_at_enqueue=*/0, 5000);
  rec.on_dequeue(tuple(6), 3, 1, kT, /*head_level_at_enqueue=*/-1, 6000);
  rec.on_dequeue(tuple(7), 3, 0, kT, /*head_level_at_enqueue=*/-1, 7000);
  AnomalyBank bank;
  bank.set_recorder(&rec);
  bank.on_stage_wait(tuple(5), 3, 1, kT, /*head=*/0, 7000);
  ASSERT_EQ(bank.findings().size(), 1u);
  const std::string path =
      ::testing::TempDir() + "anomaly_test_empty_queue_trace.json";
  ASSERT_TRUE(export_anomaly_trace_file(bank, path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  const std::string json = ss.str();
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"args\":{\"level\":1,\"head_level\":0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"level\":1,\"head_level\":-1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"level\":0,\"head_level\":-1}"),
            std::string::npos)
      << json;
}

TEST(AnomalyTest, ResetClearsStateKeepsConfigArmed) {
  AnomalyBank bank;
  AnomalyConfig cfg;
  cfg.drop_burst_threshold = 2;
  bank.arm(cfg);
  bank.on_stage_wait(tuple(1), 3, 2, kT, 0, 1000);
  bank.on_drop(0, 0, 2000);
  bank.on_drop(0, 0, 2001);
  EXPECT_GT(bank.fired_total(), 0u);
  bank.reset();
  EXPECT_EQ(bank.fired_total(), 0u);
  EXPECT_TRUE(bank.findings().empty());
  EXPECT_EQ(bank.max_inversion_wait_ns(), 0);
  EXPECT_TRUE(bank.armed());
  EXPECT_EQ(bank.config().drop_burst_threshold, 2u);
  // Detectors re-fire from scratch after the reset.
  bank.on_drop(0, 0, sim::milliseconds(5));
  bank.on_drop(0, 0, sim::milliseconds(5) + 1);
  EXPECT_EQ(bank.fired(AnomalyKind::kDropBurst), 1u);
}

}  // namespace
}  // namespace prism::telemetry
