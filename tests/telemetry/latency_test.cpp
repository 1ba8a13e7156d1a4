#include "telemetry/latency.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "json_check.h"
#include "telemetry/json_writer.h"

namespace prism::telemetry {
namespace {

kernel::SkbTimestamps overlay_ts(sim::Time base) {
  // A full three-stage journey with distinct, telescoping segments.
  kernel::SkbTimestamps ts;
  ts.nic_rx = base;
  ts.stage1_start = base + 100;   // ring wait 100
  ts.stage1_done = base + 150;    // stage1 service 50
  ts.stage2_start = base + 350;   // stage2 wait 200
  ts.stage2_done = base + 380;    // stage2 service 30
  ts.stage3_start = base + 680;   // stage3 wait 300
  ts.stage3_done = base + 720;    // stage3 service 40
  ts.socket_enqueue = base + 720;
  return ts;
}

kernel::SkbTimestamps host_ts(sim::Time base) {
  // Host path: stages 2 and 3 never happen (timestamps stay -1).
  kernel::SkbTimestamps ts;
  ts.nic_rx = base;
  ts.stage1_start = base + 80;
  ts.stage1_done = base + 140;
  ts.socket_enqueue = base + 140;
  return ts;
}

TEST(LatencyLedgerTest, SegmentsTelescopeToEndToEnd) {
  LatencyLedger ledger;
  ledger.record_delivery(overlay_ts(1000), 0);

  EXPECT_EQ(ledger.histogram(LatencyStage::kRingWait, 0).count(), 1u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kRingWait, 0).max(), 100);
  EXPECT_EQ(ledger.histogram(LatencyStage::kStage1Service, 0).max(), 50);
  EXPECT_EQ(ledger.histogram(LatencyStage::kStage2Wait, 0).max(), 200);
  EXPECT_EQ(ledger.histogram(LatencyStage::kStage2Service, 0).max(), 30);
  EXPECT_EQ(ledger.histogram(LatencyStage::kStage3Wait, 0).max(), 300);
  EXPECT_EQ(ledger.histogram(LatencyStage::kStage3Service, 0).max(), 40);
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 0).max(), 720);

  // The six segment sums reconcile exactly with the end-to-end sum.
  double segment_sum = 0.0;
  for (const auto s :
       {LatencyStage::kRingWait, LatencyStage::kStage1Service,
        LatencyStage::kStage2Wait, LatencyStage::kStage2Service,
        LatencyStage::kStage3Wait, LatencyStage::kStage3Service}) {
    segment_sum += ledger.histogram(s, 0).sum();
  }
  EXPECT_DOUBLE_EQ(segment_sum,
                   ledger.histogram(LatencyStage::kEndToEnd, 0).sum());
  EXPECT_EQ(ledger.unattributed(), 0u);
}

TEST(LatencyLedgerTest, HostPathSkipsAbsentStages) {
  LatencyLedger ledger;
  ledger.record_delivery(host_ts(500), 2);

  EXPECT_EQ(ledger.histogram(LatencyStage::kRingWait, 2).count(), 1u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kStage1Service, 2).count(), 1u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kStage2Wait, 2).count(), 0u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kStage3Service, 2).count(), 0u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 2).max(), 140);
}

TEST(LatencyLedgerTest, ClassesAreSeparateAndClamped) {
  LatencyLedger ledger;
  ledger.record_delivery(overlay_ts(0), 0);
  ledger.record_delivery(overlay_ts(0), 1);
  ledger.record_delivery(overlay_ts(0), 99);   // clamps to top class
  ledger.record_delivery(overlay_ts(0), -5);   // clamps to 0

  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 0).count(), 2u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 1).count(), 1u);
  EXPECT_EQ(ledger
                .histogram(LatencyStage::kEndToEnd,
                           kNumLatencyClasses - 1)
                .count(),
            1u);
}

TEST(LatencyLedgerTest, MissingCoreTimestampsCountAsUnattributed) {
  LatencyLedger ledger;
  kernel::SkbTimestamps none;  // all -1
  ledger.record_delivery(none, 0);
  kernel::SkbTimestamps no_end;
  no_end.nic_rx = 100;
  ledger.record_delivery(no_end, 0);

  EXPECT_EQ(ledger.unattributed(), 2u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 0).count(), 0u);
}

TEST(LatencyLedgerTest, DisabledLedgerRecordsNothing) {
  LatencyLedger ledger;
  ledger.set_enabled(false);
  ledger.record_delivery(overlay_ts(0), 0);
  ledger.record_irq_to_poll(50);
  ledger.record_socket_wait(75, 0);
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 0).count(), 0u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kIrqToPoll, 0).count(), 0u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kSocketWait, 0).count(), 0u);
  EXPECT_EQ(ledger.unattributed(), 0u);

  ledger.set_enabled(true);
  ledger.record_delivery(overlay_ts(0), 0);
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 0).count(), 1u);
}

TEST(LatencyLedgerTest, IrqToPollAndSocketWaitAreSeparateAxes) {
  LatencyLedger ledger;
  ledger.record_irq_to_poll(1234);
  ledger.record_socket_wait(5678, 1);
  EXPECT_EQ(ledger.histogram(LatencyStage::kIrqToPoll, 0).max(), 1234);
  EXPECT_EQ(ledger.histogram(LatencyStage::kSocketWait, 1).max(), 5678);
  // Neither contaminates the telescoping segments.
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 0).count(), 0u);
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 1).count(), 0u);
}

TEST(LatencyLedgerTest, WindowsRotateAndMerge) {
  // Interval 1000 ns, 4 windows.
  LatencyLedger ledger(/*window_interval=*/1000, /*window_capacity=*/4);
  // Two deliveries landing in window 0, one in window 2.
  auto in_window = [](sim::Time enqueue_at) {
    kernel::SkbTimestamps ts;
    ts.nic_rx = enqueue_at - 100;
    ts.stage1_start = enqueue_at - 50;
    ts.stage1_done = enqueue_at;
    ts.socket_enqueue = enqueue_at;
    return ts;
  };
  ledger.record_delivery(in_window(200), 0);
  ledger.record_delivery(in_window(900), 0);
  ledger.record_delivery(in_window(2500), 0);

  const auto merged = ledger.merged_windows();
  EXPECT_EQ(merged.count(), 3u);

  const auto b = ledger.snapshot();
  ASSERT_EQ(b.windows.size(), 2u);
  EXPECT_EQ(b.windows[0].window, 0);
  EXPECT_EQ(b.windows[0].count, 2u);
  EXPECT_EQ(b.windows[1].window, 2);
  EXPECT_EQ(b.windows[1].start_ns, 2000);
  EXPECT_EQ(b.window_interval_ns, 1000);
}

TEST(LatencyLedgerTest, WindowEvictionAndLateDropsAreCounted) {
  LatencyLedger ledger(/*window_interval=*/1000, /*window_capacity=*/2);
  auto at = [](sim::Time enqueue_at) {
    kernel::SkbTimestamps ts;
    ts.nic_rx = enqueue_at - 10;
    ts.socket_enqueue = enqueue_at;
    return ts;
  };
  ledger.record_delivery(at(100), 0);   // window 0
  ledger.record_delivery(at(1100), 0);  // window 1
  ledger.record_delivery(at(2100), 0);  // window 2 evicts window 0
  EXPECT_EQ(ledger.windows_evicted(), 1u);

  // A record for the long-gone window 0 slot now holding window 2 is a
  // late drop, not a silent misfile.
  ledger.record_delivery(at(150), 0);
  EXPECT_EQ(ledger.window_late_drops(), 1u);
  EXPECT_EQ(ledger.merged_windows().count(), 2u);
}

TEST(LatencyLedgerTest, MergedWindowsFiltersByClass) {
  LatencyLedger ledger(1000, 4);
  auto at = [](sim::Time enqueue_at) {
    kernel::SkbTimestamps ts;
    ts.nic_rx = enqueue_at - 10;
    ts.socket_enqueue = enqueue_at;
    return ts;
  };
  ledger.record_delivery(at(100), 0);
  ledger.record_delivery(at(200), 1);
  ledger.record_delivery(at(300), 1);
  EXPECT_EQ(ledger.merged_windows(0).count(), 1u);
  EXPECT_EQ(ledger.merged_windows(1).count(), 2u);
  EXPECT_EQ(ledger.merged_windows().count(), 3u);
}

TEST(LatencyLedgerTest, DroppedInFlightCountsPerClass) {
  LatencyLedger ledger;
  ledger.record_dropped(0);
  ledger.record_dropped(1);
  ledger.record_dropped(1);
  ledger.record_dropped(-5);   // clamps into class 0
  ledger.record_dropped(999);  // clamps into the top class
  EXPECT_EQ(ledger.dropped_in_flight(0), 2u);
  EXPECT_EQ(ledger.dropped_in_flight(1), 2u);
  EXPECT_EQ(ledger.dropped_in_flight(), 5u);
  // Drops never pollute the stage histograms.
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 0).count(), 0u);
  EXPECT_EQ(ledger.merged_windows().count(), 0u);

  const auto b = ledger.snapshot();
  EXPECT_EQ(b.dropped_in_flight, 5u);
  const std::string json = latency_json(ledger);
  EXPECT_NE(json.find("\"dropped_in_flight\""), std::string::npos);

  ledger.reset();
  EXPECT_EQ(ledger.dropped_in_flight(), 0u);
  EXPECT_EQ(ledger.dropped_in_flight(1), 0u);
}

TEST(LatencyLedgerTest, ResetClearsDataKeepsConfig) {
  LatencyLedger ledger(2000, 8);
  ledger.record_delivery(overlay_ts(0), 0);
  ledger.reset();
  EXPECT_EQ(ledger.histogram(LatencyStage::kEndToEnd, 0).count(), 0u);
  EXPECT_EQ(ledger.merged_windows().count(), 0u);
  EXPECT_EQ(ledger.window_interval(), 2000);
  EXPECT_EQ(ledger.window_capacity(), 8u);
}

TEST(LatencyLedgerTest, RejectsInvalidConfig) {
  EXPECT_THROW(LatencyLedger(0, 4), std::invalid_argument);
  EXPECT_THROW(LatencyLedger(1000, 0), std::invalid_argument);
  LatencyLedger ok;
  EXPECT_THROW(ok.set_window_interval(-1), std::invalid_argument);
}

TEST(LatencyLedgerTest, SnapshotRowsMatchHistograms) {
  LatencyLedger ledger;
  for (int i = 0; i < 10; ++i) ledger.record_delivery(overlay_ts(i), 1);
  const auto b = ledger.snapshot();
  EXPECT_TRUE(b.enabled);
  bool found = false;
  for (const auto& row : b.stages) {
    if (row.stage == LatencyStage::kEndToEnd && row.level == 1) {
      found = true;
      EXPECT_EQ(row.count, 10u);
      EXPECT_DOUBLE_EQ(row.sum_ns,
                       ledger.histogram(LatencyStage::kEndToEnd, 1).sum());
    }
    EXPECT_GT(row.count, 0u);  // only non-empty cells appear
  }
  EXPECT_TRUE(found);
}

TEST(LatencyLedgerTest, JsonIsWellFormedAndNamed) {
  LatencyLedger ledger;
  ledger.record_delivery(overlay_ts(0), 0);
  const std::string json = latency_json(ledger);
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("\"ring_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"end_to_end\""), std::string::npos);
}

TEST(LatencyLedgerTest, RenderedTablesAreNonEmpty) {
  LatencyLedger ledger(1000, 4);
  kernel::SkbTimestamps ts = overlay_ts(0);
  ledger.record_delivery(ts, 0);
  const auto b = ledger.snapshot();
  const std::string breakdown = render_latency_breakdown(b);
  EXPECT_NE(breakdown.find("ring_wait"), std::string::npos);
  const std::string windows = render_latency_windows(b);
  EXPECT_FALSE(windows.empty());
}

TEST(LatencyStageNameTest, AllStagesHaveStableNames) {
  EXPECT_STREQ(latency_stage_name(LatencyStage::kRingWait), "ring_wait");
  EXPECT_STREQ(latency_stage_name(LatencyStage::kStage1Service),
               "stage1_service");
  EXPECT_STREQ(latency_stage_name(LatencyStage::kStage2Wait),
               "stage2_wait");
  EXPECT_STREQ(latency_stage_name(LatencyStage::kStage3Service),
               "stage3_service");
  EXPECT_STREQ(latency_stage_name(LatencyStage::kEndToEnd), "end_to_end");
  EXPECT_STREQ(latency_stage_name(LatencyStage::kIrqToPoll),
               "irq_to_poll");
  EXPECT_STREQ(latency_stage_name(LatencyStage::kSocketWait),
               "socket_wait");
}

}  // namespace
}  // namespace prism::telemetry
