#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  EXPECT_EQ(first.kind, SpanTracer::Kind::kSpan);

  const auto& second = tracer.at(1);
  EXPECT_EQ(second.begin, 200);
  EXPECT_EQ(second.track, 1);
  EXPECT_EQ(second.kind, SpanTracer::Kind::kInstant);
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
  SpanTracer::PollList too_long;
  for (std::size_t i = 0; i <= SpanTracer::kMaxPollList; ++i) {
    too_long.push(id);
  }
  tracer.poll(0, id, 6, 1, 0, too_long);
  EXPECT_EQ(tracer.truncated_lists(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.truncated_lists(), 0u);
  EXPECT_EQ(tracer.intern("poll"), id);  // name table survives
}

TEST(SpanTracerTest, ZeroCapacityIsRejected) {
  EXPECT_THROW(SpanTracer(0), std::invalid_argument);
}

TEST(SpanTracerTest, ChromeExportIsWellFormedJson) {
  SpanTracer tracer;
  tracer.set_track_label(0, "server.cpu0");
  tracer.set_track_label(1, "server.cpu1");
  const auto poll = tracer.intern("eth", "packets", "stage_ns");
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

TEST(SpanTracerTest, ArgsExportUnderTheNamesTheirProducerGave) {
  SpanTracer tracer;
  const auto busy = tracer.intern("busy", "events", "busy_ns");
  const auto bare = tracer.intern("bare");
  // Widened to 64 bits: a busy time past 2^32 ns exports unclamped.
  tracer.span(0, busy, 0, 10, 3, 5'000'000'000);
  tracer.span(0, bare, 0, 10, 1, 2);
  // Re-interning without arg names keeps the names already given.
  EXPECT_EQ(tracer.intern("busy"), busy);
  tracer.span(1, busy, 0, 10, 4);
  const std::string json = tracer.export_chrome_trace();
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"args\":{\"events\":3,\"busy_ns\":5000000000}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"arg\":1,\"arg2\":2}"),
            std::string::npos)
      << json;
  // A named arg exports even when it is 0.
  EXPECT_NE(json.find("\"args\":{\"events\":4,\"busy_ns\":0}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"packets\""), std::string::npos) << json;
}

TEST(SpanTracerTest, PollSpansExportTheirPollList) {
  SpanTracer tracer;
  const auto eth = tracer.intern("eth", "packets");
  const auto br = tracer.intern("br");
  SpanTracer::PollList list;
  list.push(br);
  list.push(eth);
  tracer.poll(0, eth, 100, 50, 64, list);
  // An empty list and zero args still export the (empty) list.
  tracer.poll(0, br, 200, 0, 0, SpanTracer::PollList{});
  const std::string json = tracer.export_chrome_trace();
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"args\":{\"packets\":64,"
                      "\"poll_list\":[\"br\",\"eth\"]}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"poll_list\":[]}"), std::string::npos)
      << json;
}

// --------------------------------------------- Fig. 6 poll-order rows

void record_poll(SpanTracer& tracer, int track, sim::Time at,
                 const std::string& device,
                 const std::vector<std::string>& list,
                 std::uint64_t packets) {
  SpanTracer::PollList ids;
  for (const auto& name : list) ids.push(tracer.intern(name));
  tracer.poll(track, tracer.intern(device), at, 10, packets, ids);
}

TEST(SpanTracerTest, PollRowsReadOldestFirstAndRender) {
  SpanTracer tracer;
  record_poll(tracer, 0, 100, "eth", {"br", "eth"}, 64);
  tracer.span(0, tracer.intern("net_rx_action"), 150, 5);  // not a poll
  record_poll(tracer, 0, 200, "br", {"eth", "veth"}, 64);
  const auto rows = tracer.polls(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].iteration, 1u);
  EXPECT_EQ(rows[0].at, 100);
  EXPECT_EQ(rows[0].device, "eth");
  EXPECT_EQ(rows[0].packets, 64u);
  EXPECT_EQ(rows[1].iteration, 2u);
  EXPECT_EQ(rows[1].device, "br");
  EXPECT_EQ(rows[1].poll_list, (std::vector<std::string>{"eth", "veth"}));
  EXPECT_EQ(render_poll_table(rows),
            "Iter.  Device  Poll list\n"
            "1      eth     [br, eth]\n"
            "2      br      [eth, veth]\n");
  tracer.clear();
  EXPECT_TRUE(tracer.polls(0).empty());
}

TEST(SpanTracerTest, PollRowsFilterByTrackAndStartInstant) {
  SpanTracer tracer;
  record_poll(tracer, 0, 100, "eth", {}, 1);
  record_poll(tracer, 4, 150, "br", {}, 1);
  record_poll(tracer, 0, 200, "veth", {}, 1);
  record_poll(tracer, 0, 300, "eth", {}, 1);
  const auto rows = tracer.polls(0, 200);
  ASSERT_EQ(rows.size(), 2u);
  // Numbered from 1 within the read, not across the ring.
  EXPECT_EQ(rows[0].iteration, 1u);
  EXPECT_EQ(rows[0].device, "veth");
  EXPECT_EQ(rows[1].device, "eth");
  ASSERT_EQ(tracer.polls(4).size(), 1u);
  EXPECT_EQ(tracer.polls(4)[0].device, "br");
}

TEST(SpanTracerTest, RenderRespectsRowLimit) {
  SpanTracer tracer;
  for (int i = 0; i < 100; ++i) record_poll(tracer, 0, i, "eth", {}, 1);
  const auto text = render_poll_table(tracer.polls(0), 3);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);  // header + 3
}

TEST(SpanTracerTest, PollRowsSurviveRingOverwrite) {
  SpanTracer tracer(3);
  for (int i = 0; i < 10; ++i) {
    record_poll(tracer, 0, i * 100, "eth", {"br"},
                static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 7u);
  // The newest three survive, oldest first.
  const auto rows = tracer.polls(0);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].iteration, 1u);
  EXPECT_EQ(rows[0].packets, 7u);
  EXPECT_EQ(rows[2].iteration, 3u);
  EXPECT_EQ(rows[2].at, 900);
  EXPECT_EQ(rows[2].poll_list, (std::vector<std::string>{"br"}));
}

TEST(SpanTracerTest, LongPollListsAreTruncated) {
  SpanTracer tracer;
  std::vector<std::string> list;
  for (std::size_t i = 0; i < SpanTracer::kMaxPollList + 4; ++i) {
    list.push_back("dev" + std::to_string(i));
  }
  record_poll(tracer, 0, 0, "eth", list, 1);
  record_poll(tracer, 0, 1, "eth",
              {list.begin(), list.begin() + SpanTracer::kMaxPollList}, 1);
  EXPECT_EQ(tracer.truncated_lists(), 1u);  // a full list is not cut off
  const auto rows = tracer.polls(0);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].poll_list.size(), SpanTracer::kMaxPollList);
  EXPECT_EQ(rows[0].poll_list.front(), "dev0");
  EXPECT_EQ(rows[0].poll_list.back(), "dev11");
  EXPECT_EQ(rows[1].poll_list.size(), SpanTracer::kMaxPollList);
}

TEST(SpanTracerTest, PollListIdsResolveToStableInternedNames) {
  SpanTracer tracer;
  const auto eth = tracer.intern("eth");
  const auto br = tracer.intern("br");
  // The engine interns the polled device with its arg name: same id.
  EXPECT_EQ(tracer.intern("eth", "packets"), eth);
  SpanTracer::PollList list;
  list.push(br);
  list.push(eth);
  tracer.poll(0, eth, 50, 16, 16, list);
  const auto rows = tracer.polls(0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].device, "eth");
  EXPECT_EQ(rows[0].poll_list, (std::vector<std::string>{"br", "eth"}));
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
