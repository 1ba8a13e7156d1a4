#include "apps/memcached.h"

#include <gtest/gtest.h>

#include "apps/memaslap.h"
#include "harness/testbed.h"

namespace prism::apps {
namespace {

std::vector<std::uint8_t> request_bytes(const KvRequest& req) {
  std::vector<std::uint8_t> out;
  encode_kv_request(req, out);
  return out;
}

std::vector<std::uint8_t> response_bytes(const KvResponse& resp) {
  std::vector<std::uint8_t> out;
  encode_kv_response(resp, out);
  return out;
}

TEST(KvProtocolTest, RequestRoundTrip) {
  KvRequest req;
  req.probe = {42, 1000, false};
  req.op = KvOp::kSet;
  req.key = "hello-key";
  req.value = {9, 8, 7};
  const auto bytes = request_bytes(req);
  const auto decoded = decode_kv_request(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->probe.seq, 42u);
  EXPECT_EQ(decoded->op, KvOp::kSet);
  EXPECT_EQ(decoded->key, "hello-key");
  EXPECT_EQ(decoded->value, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(KvProtocolTest, ResponseRoundTrip) {
  KvResponse resp;
  resp.probe = {7, 500, false};
  resp.status = KvStatus::kHit;
  resp.value = std::vector<std::uint8_t>(1024, 0x3c);
  const auto bytes = response_bytes(resp);
  const auto decoded = decode_kv_response(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, KvStatus::kHit);
  EXPECT_EQ(decoded->value.size(), 1024u);
}

TEST(KvProtocolTest, EncodingReplacesTheBufferAndKeepsItsCapacity) {
  KvResponse big;
  big.probe = {1, 2, false};
  big.status = KvStatus::kHit;
  big.value = std::vector<std::uint8_t>(512, 0x11);
  std::vector<std::uint8_t> buf;
  encode_kv_response(big, buf);
  const std::size_t capacity = buf.capacity();

  KvResponse small;
  small.probe = {3, 4, true};
  small.status = KvStatus::kMiss;
  encode_kv_response(small, buf);
  EXPECT_EQ(buf, response_bytes(small));
  EXPECT_EQ(buf.capacity(), capacity);
  const auto decoded = decode_kv_response(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->probe.seq, 3u);
  EXPECT_EQ(decoded->status, KvStatus::kMiss);
  EXPECT_TRUE(decoded->value.empty());
}

TEST(KvProtocolTest, TruncatedBuffersRejected) {
  KvRequest req;
  req.key = "k";
  const auto bytes = request_bytes(req);
  for (std::size_t len : {0u, 10u, 25u, 27u}) {
    EXPECT_FALSE(
        decode_kv_request(std::span(bytes.data(), len)).has_value())
        << len;
  }
}

struct McRig {
  harness::Testbed tb;
  overlay::Netns& server_ns = tb.add_server_container("memcached");
  overlay::Netns& client_ns = tb.add_client_container("memaslap");
  MemcachedServer server{
      tb.server_sim(),
      {&tb.server(), &server_ns, &tb.server().cpu(1), 11211}};

  /// Runs a simulated second past the clock — past every request here —
  /// and checks the testbed drained.
  void drain() {
    tb.run_until(tb.client_sim().now() + sim::seconds(1));
    EXPECT_EQ(tb.sim().pending_events(), 0u);
  }
};

TEST(MemcachedServerTest, GetAfterPreload) {
  McRig rig;
  rig.server.preload(100, 64);
  EXPECT_EQ(rig.server.store_size(), 100u);

  auto& sock = rig.tb.client().udp_bind(rig.client_ns, 5000);
  KvRequest req;
  req.probe = {1, 0, false};
  req.op = KvOp::kGet;
  req.key = MemcachedServer::key_name(7);
  rig.tb.client().udp_send(rig.client_ns, rig.tb.client().cpu(1), 5000,
                           rig.server_ns.ip(), 11211,
                           request_bytes(req));
  rig.drain();
  ASSERT_EQ(sock.received(), 1u);
  const auto resp = decode_kv_response(sock.try_recv()->payload());
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, KvStatus::kHit);
  EXPECT_EQ(resp->value.size(), 64u);
  EXPECT_EQ(rig.server.gets(), 1u);
}

TEST(MemcachedServerTest, MissForUnknownKey) {
  McRig rig;
  auto& sock = rig.tb.client().udp_bind(rig.client_ns, 5000);
  KvRequest req;
  req.op = KvOp::kGet;
  req.key = "nope";
  rig.tb.client().udp_send(rig.client_ns, rig.tb.client().cpu(1), 5000,
                           rig.server_ns.ip(), 11211,
                           request_bytes(req));
  rig.drain();
  ASSERT_EQ(sock.received(), 1u);
  EXPECT_EQ(decode_kv_response(sock.try_recv()->payload())->status,
            KvStatus::kMiss);
  EXPECT_EQ(rig.server.misses(), 1u);
}

TEST(MemcachedServerTest, SetThenGet) {
  McRig rig;
  auto& sock = rig.tb.client().udp_bind(rig.client_ns, 5000);
  KvRequest set;
  set.op = KvOp::kSet;
  set.key = "fresh";
  set.value = {1, 2, 3, 4};
  rig.tb.client().udp_send(rig.client_ns, rig.tb.client().cpu(1), 5000,
                           rig.server_ns.ip(), 11211,
                           request_bytes(set));
  rig.drain();
  ASSERT_EQ(sock.received(), 1u);
  EXPECT_EQ(decode_kv_response(sock.try_recv()->payload())->status,
            KvStatus::kStored);

  KvRequest get;
  get.op = KvOp::kGet;
  get.key = "fresh";
  rig.tb.client().udp_send(rig.client_ns, rig.tb.client().cpu(1), 5000,
                           rig.server_ns.ip(), 11211,
                           request_bytes(get));
  rig.drain();
  ASSERT_EQ(sock.received(), 2u);  // cumulative: set-ack + get response
  const auto resp = decode_kv_response(sock.try_recv()->payload());
  EXPECT_EQ(resp->status, KvStatus::kHit);
  EXPECT_EQ(resp->value, set.value);
}

TEST(MemaslapTest, ClosedLoopCompletesOperations) {
  McRig rig;
  rig.server.preload(1000, 256);
  MemaslapClient::Config cfg;
  cfg.host = &rig.tb.client();
  cfg.ns = &rig.client_ns;
  cfg.cpu = &rig.tb.client().cpu(1);
  cfg.server_ip = rig.server_ns.ip();
  cfg.concurrency = 4;
  cfg.value_size = 256;
  cfg.stop_at = sim::milliseconds(20);
  MemaslapClient client(rig.tb.client_sim(), cfg);
  client.start();
  rig.tb.run_until(sim::milliseconds(25));
  EXPECT_GT(client.completed(), 100u);
  EXPECT_EQ(client.timeouts(), 0u);
  EXPECT_GT(client.gets(), client.sets());
  EXPECT_GT(client.ops_per_second(), 0.0);
  // Latency histogram is populated and sane.
  EXPECT_EQ(client.latency().count(), client.completed());
  EXPECT_GT(client.latency().percentile(0.5), sim::microseconds(10));
}

TEST(MemaslapTest, GetRatioApproximatelyHolds) {
  McRig rig;
  rig.server.preload(1000, 64);
  MemaslapClient::Config cfg;
  cfg.host = &rig.tb.client();
  cfg.ns = &rig.client_ns;
  cfg.cpu = &rig.tb.client().cpu(1);
  cfg.server_ip = rig.server_ns.ip();
  cfg.concurrency = 8;
  cfg.get_ratio = 0.5;
  cfg.value_size = 64;
  cfg.stop_at = sim::milliseconds(30);
  MemaslapClient client(rig.tb.client_sim(), cfg);
  client.start();
  rig.tb.run_until(sim::milliseconds(35));
  const double total = static_cast<double>(client.gets() + client.sets());
  EXPECT_NEAR(static_cast<double>(client.gets()) / total, 0.5, 0.1);
}

}  // namespace
}  // namespace prism::apps
