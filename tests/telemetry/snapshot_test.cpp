#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "json_check.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"

namespace prism::telemetry {
namespace {

std::vector<std::string> split_columns(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> cols;
  std::string col;
  while (in >> col) cols.push_back(col);
  return cols;
}

TEST(SoftnetStatTest, RendersThirteenHexColumnsPerCpu) {
  std::vector<SoftnetRow> rows(2);
  rows[0] = SoftnetRow{0x12345, 0x1a, 0x7, 0x3, 0x40, 0};
  rows[1] = SoftnetRow{0, 0, 0, 0, 0, 1};
  const std::string text = render_softnet_stat(rows);

  std::istringstream in(text);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto cols = split_columns(line);
  ASSERT_EQ(cols.size(), 13u);  // kernel softnet_stat layout
  EXPECT_EQ(cols[0], "00012345");  // processed
  EXPECT_EQ(cols[1], "0000001a");  // dropped
  EXPECT_EQ(cols[2], "00000007");  // time_squeeze
  EXPECT_EQ(cols[9], "00000003");  // received_rps
  EXPECT_EQ(cols[11], "00000040");  // backlog_len
  EXPECT_EQ(cols[12], "00000000");  // cpu index

  ASSERT_TRUE(std::getline(in, line));
  cols = split_columns(line);
  ASSERT_EQ(cols.size(), 13u);
  EXPECT_EQ(cols[12], "00000001");
  EXPECT_FALSE(std::getline(in, line));  // exactly one row per CPU
}

TEST(SoftnetStatTest, EmptyRowsRenderEmpty) {
  EXPECT_TRUE(render_softnet_stat({}).empty());
}

TEST(NetDevTest, RendersHeaderAndDeviceRows) {
  std::vector<NetDevRow> rows;
  rows.push_back(NetDevRow{"eth0", 1000, 5, 2000});
  rows.push_back(NetDevRow{"br42", 900, 0, 0});
  const std::string text = render_net_dev(rows);

  std::istringstream in(text);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // banner line 1
  EXPECT_NE(line.find("Receive"), std::string::npos);
  ASSERT_TRUE(std::getline(in, line));  // banner line 2
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("eth0:"), std::string::npos);
  auto cols = split_columns(line);
  ASSERT_EQ(cols.size(), 4u);  // "eth0:" rx drop tx
  EXPECT_EQ(cols[1], "1000");
  EXPECT_EQ(cols[2], "5");
  EXPECT_EQ(cols[3], "2000");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("br42:"), std::string::npos);
}

TEST(RegistryJsonTest, EmitsCountersAndGauges) {
  Registry reg;
  Counter rx_frames;
  Counter packets;
  Gauge ring_depth;
  reg.add("nic.rx_frames", rx_frames);
  reg.add("cpu0.packets", packets);
  reg.add("nic.q0.ring_depth", ring_depth);
  rx_frames.inc(123);
  packets.inc(45);
  ring_depth.set(17);
  ring_depth.set(9);  // max stays 17

  const std::string json = registry_json(reg);
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"nic.rx_frames\":123"), std::string::npos);
  EXPECT_NE(json.find("\"cpu0.packets\":45"), std::string::npos);
  EXPECT_NE(json.find("\"nic.q0.ring_depth\":{\"value\":9,\"max\":17}"),
            std::string::npos);
}

TEST(RegistryJsonTest, EmptyRegistryIsStillValidJson) {
  Registry reg;
  const std::string json = registry_json(reg);
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_EQ(json, R"({"counters":{},"gauges":{}})");
}

TEST(RegistryJsonTest, EscapesAwkwardNames) {
  Registry reg;
  Counter weird;
  reg.add("weird\"name\n", weird);
  weird.inc(1);
  const std::string json = registry_json(reg);
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("weird\\\"name\\n"), std::string::npos);
}

}  // namespace
}  // namespace prism::telemetry
