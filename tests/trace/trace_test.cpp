#include <gtest/gtest.h>

#include "trace/poll_trace.h"

namespace prism::trace {
namespace {

TEST(PollTraceTest, RecordsAndRenders) {
  PollTrace trace;
  trace.on_poll(100, "eth", {"br", "eth"}, 64);
  trace.on_poll(200, "br", {"eth", "veth"}, 64);
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.records()[0].iteration, 1u);
  EXPECT_EQ(trace.records()[1].device, "br");
  EXPECT_EQ(trace.device_order(),
            (std::vector<std::string>{"eth", "br"}));
  const auto text = trace.render();
  EXPECT_NE(text.find("eth"), std::string::npos);
  EXPECT_NE(text.find("[br, eth]"), std::string::npos);
  trace.clear();
  EXPECT_TRUE(trace.records().empty());
}

TEST(PollTraceTest, RenderRespectsRowLimit) {
  PollTrace trace;
  for (int i = 0; i < 100; ++i) trace.on_poll(i, "eth", {}, 1);
  const auto text = trace.render(3);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);  // header + 3
}

TEST(PollTraceTest, RingOverwritesOldestWhenFull) {
  PollTrace trace(3);
  for (int i = 0; i < 10; ++i) {
    trace.on_poll(i * 100, "eth", {"br"}, i);
  }
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.capacity(), 3u);
  EXPECT_EQ(trace.dropped_records(), 7u);
  const auto records = trace.records();
  ASSERT_EQ(records.size(), 3u);
  // Newest three survive, oldest first; the global iteration counter
  // keeps numbering across overwrites.
  EXPECT_EQ(records[0].iteration, 8u);
  EXPECT_EQ(records[0].packets, 7);
  EXPECT_EQ(records[2].iteration, 10u);
  EXPECT_EQ(records[2].at, 900);
  EXPECT_EQ(records[2].poll_list, (std::vector<std::string>{"br"}));
}

TEST(PollTraceTest, LongPollListsAreTruncated) {
  PollTrace trace;
  std::vector<std::string> list;
  for (std::size_t i = 0; i < PollTrace::kMaxPollList + 4; ++i) {
    list.push_back("dev" + std::to_string(i));
  }
  trace.on_poll(0, "eth", list, 1);
  EXPECT_EQ(trace.truncated_lists(), 1u);
  const auto records = trace.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].poll_list.size(), PollTrace::kMaxPollList);
  EXPECT_EQ(records[0].poll_list.front(), "dev0");
}

TEST(PollTraceTest, SetCapacityRebounds) {
  PollTrace trace(8);
  for (int i = 0; i < 8; ++i) trace.on_poll(i, "eth", {}, 1);
  trace.set_capacity(2);
  EXPECT_EQ(trace.size(), 0u);  // retained records cleared
  for (int i = 0; i < 5; ++i) trace.on_poll(i, "br", {}, 1);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped_records(), 3u);
  EXPECT_EQ(trace.device_order(),
            (std::vector<std::string>{"br", "br"}));
}

TEST(PollTraceTest, InternedIdsAreStable) {
  PollTrace trace;
  const auto eth = trace.intern("eth");
  const auto br = trace.intern("br");
  EXPECT_NE(eth, br);
  EXPECT_EQ(trace.intern("eth"), eth);
  const PollTrace::NameId list[] = {br, eth};
  trace.on_poll_ids(50, eth, list, 2, 16);
  const auto records = trace.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].device, "eth");
  EXPECT_EQ(records[0].poll_list,
            (std::vector<std::string>{"br", "eth"}));
}

}  // namespace
}  // namespace prism::trace
