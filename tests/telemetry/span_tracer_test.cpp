#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/time.h"
#include "telemetry/span_tracer.h"
#include "json_check.h"

namespace prism::telemetry {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(SpanTracerTest, InternIsStable) {
  SpanTracer tracer;
  const auto eth = tracer.intern("eth");
  const auto br = tracer.intern("br");
  EXPECT_NE(eth, br);
  EXPECT_EQ(tracer.intern("eth"), eth);
  EXPECT_EQ(tracer.name(eth), "eth");
  EXPECT_EQ(tracer.name(br), "br");
}

TEST(SpanTracerTest, RecordsSpansOldestFirst) {
  SpanTracer tracer;
  const auto id = tracer.intern("poll");
  tracer.span(0, id, 100, 50, 7);
  tracer.instant(1, id, 200);
  ASSERT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const auto& first = tracer.at(0);
  EXPECT_EQ(first.begin, 100);
  EXPECT_EQ(first.duration, 50);
  EXPECT_EQ(first.track, 0);
  EXPECT_EQ(first.arg, 7u);
  EXPECT_FALSE(first.instant);

  const auto& second = tracer.at(1);
  EXPECT_EQ(second.begin, 200);
  EXPECT_EQ(second.track, 1);
  EXPECT_TRUE(second.instant);
}

TEST(SpanTracerTest, RingOverwritesOldestWhenFull) {
  SpanTracer tracer(4);
  const auto id = tracer.intern("poll");
  for (sim::Time t = 0; t < 10; ++t) tracer.span(0, id, t, 1);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The newest 4 spans survive, oldest-first: begins 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tracer.at(i).begin, static_cast<sim::Time>(6 + i));
  }
}

TEST(SpanTracerTest, ClearResetsRingAndCountersNotNames) {
  SpanTracer tracer(4);
  const auto id = tracer.intern("poll");
  for (int i = 0; i < 6; ++i) tracer.span(0, id, i, 1);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.intern("poll"), id);  // name table survives
}

TEST(SpanTracerTest, ZeroCapacityIsRejected) {
  EXPECT_THROW(SpanTracer(0), std::invalid_argument);
}

TEST(SpanTracerTest, ChromeExportIsWellFormedJson) {
  SpanTracer tracer;
  tracer.set_track_label(0, "server.cpu0");
  tracer.set_track_label(1, "server.cpu1");
  const auto poll = tracer.intern("net_rx_action");
  const auto irq = tracer.intern("irq \"q0\"\n");  // needs escaping
  tracer.span(0, poll, 1000, 500, 64);
  tracer.span(1, poll, 2000, 250);
  tracer.instant(0, irq, 900);

  const std::string json = tracer.export_chrome_trace("prism-test");
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;

  // One process_name + two thread_name metadata records.
  EXPECT_EQ(count_occurrences(json, "\"process_name\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"thread_name\""), 2u);
  EXPECT_NE(json.find("\"server.cpu0\""), std::string::npos);
  EXPECT_NE(json.find("\"prism-test\""), std::string::npos);

  // Two complete spans, one instant; the poll arg rides along.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), 1u);
  EXPECT_NE(json.find("\"packets\":64"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(SpanTracerTest, ChromeExportTimesAreMicroseconds) {
  SpanTracer tracer;
  const auto id = tracer.intern("poll");
  tracer.span(0, id, sim::microseconds(3), sim::microseconds(2));
  const std::string json = tracer.export_chrome_trace();
  EXPECT_NE(json.find("\"ts\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2"), std::string::npos) << json;
}

TEST(SpanTracerTest, ExportFileRoundTrips) {
  SpanTracer tracer;
  tracer.span(0, tracer.intern("poll"), 100, 10);
  const std::string path =
      ::testing::TempDir() + "span_tracer_test_trace.json";
  ASSERT_TRUE(tracer.export_chrome_trace_file(path, "roundtrip"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), tracer.export_chrome_trace("roundtrip"));
  std::remove(path.c_str());
}

TEST(SpanTracerTest, ExportFileFailsOnBadPath) {
  SpanTracer tracer;
  EXPECT_FALSE(tracer.export_chrome_trace_file(
      "/nonexistent-dir-for-prism-test/trace.json"));
}

}  // namespace
}  // namespace prism::telemetry
