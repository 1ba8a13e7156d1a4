// Cluster-wide telemetry roll-up: counter/gauge merging sums by name in
// first-seen order, and the merged latency document is built from merged
// histograms (fleet percentiles over one combined distribution), so its
// counts equal the sum of the per-host ledgers.
#include "telemetry/rollup.h"

#include <string>

#include <gtest/gtest.h>

#include "telemetry/json_writer.h"
#include "telemetry/latency.h"
#include "telemetry/metrics.h"

namespace prism::telemetry {
namespace {

constexpr auto npos = std::string::npos;

TEST(RollupTest, MergeCountersSumsByNameInFirstSeenOrder) {
  Registry a;
  Registry b;
  Counter a_rx;
  Counter a_tx;
  Counter b_tx;
  Counter b_drops;
  a.add("rx", a_rx);
  a.add("tx", a_tx);
  b.add("tx", b_tx);
  b.add("drops", b_drops);
  a_rx.inc(3);
  a_tx.inc(1);
  b_tx.inc(5);
  b_drops.inc(2);
  const auto merged = merge_counters({&a, &b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].name, "rx");
  EXPECT_EQ(merged[1].name, "tx");
  EXPECT_EQ(merged[2].name, "drops");
  EXPECT_EQ(merged[0].value, 3u);
  EXPECT_EQ(merged[1].value, 6u);
  EXPECT_EQ(merged[2].value, 2u);
  // Null registries are tolerated (a host that never initialized).
  EXPECT_EQ(merge_counters({nullptr, &a}).size(), 2u);
}

TEST(RollupTest, MergeGaugesSumsValuesAndHighWaters) {
  Registry a;
  Registry b;
  Gauge a_backlog;
  Gauge b_backlog;
  a.add("backlog", a_backlog);
  b.add("backlog", b_backlog);
  a_backlog.set(7);
  a_backlog.set(3);  // max stays 7
  b_backlog.set(10);
  const auto merged = merge_gauges({&a, &b});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].name, "backlog");
  EXPECT_EQ(merged[0].value, 13);
  // Summed high-waters: a conservative fleet-wide bound (the per-host
  // maxima need not have coincided in time).
  EXPECT_EQ(merged[0].max_value, 17);
}

TEST(RollupTest, MergedRegistryJsonHasBothSections) {
  Registry a;
  Counter rx;
  Gauge depth;
  a.add("rx", rx);
  a.add("depth", depth);
  rx.inc(4);
  depth.set(2);
  JsonWriter w;
  write_merged_registry_json(w, {&a});
  const std::string doc = w.take();
  EXPECT_NE(doc.find("\"counters\":{\"rx\":4}"), npos) << doc;
  EXPECT_NE(doc.find("\"depth\":{\"value\":2,\"max\":2}"), npos) << doc;
}

TEST(RollupTest, MergedLatencyCountsEqualSumOfHosts) {
  LatencyLedger a;
  LatencyLedger b;
  a.record_irq_to_poll(1'000);
  a.record_irq_to_poll(2'000);
  b.record_irq_to_poll(1'500);
  JsonWriter w;
  write_merged_latency_json(w, {&a, &b, nullptr});
  const std::string doc = w.take();
  EXPECT_NE(doc.find("\"hosts\":2"), npos) << doc;
  const auto& ha = a.histogram(LatencyStage::kIrqToPoll, 0);
  const auto& hb = b.histogram(LatencyStage::kIrqToPoll, 0);
  ASSERT_EQ(ha.count() + hb.count(), 3u);
  // The merged row aggregates one combined histogram: exact count and
  // exact sum across both hosts.
  EXPECT_NE(doc.find("\"count\":3"), npos) << doc;
  EXPECT_NE(doc.find("\"sum_ns\":4500"), npos) << doc;
}

TEST(RollupTest, LanesJsonWithoutProfilerIsAnHonestStub) {
  const std::string doc = lanes_json(nullptr);
  EXPECT_EQ(doc, "{\"attached\":false,\"lanes\":[],\"workers\":[]}");
}

}  // namespace
}  // namespace prism::telemetry
