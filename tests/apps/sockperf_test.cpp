#include "apps/sockperf.h"

#include <gtest/gtest.h>

#include "harness/testbed.h"

namespace prism::apps {
namespace {

struct Rig {
  harness::Testbed tb;
  overlay::Netns& server_ns = tb.add_server_container("srv");
  overlay::Netns& client_ns = tb.add_client_container("cli");
  SockperfServer server{
      tb.server_sim(),
      {&tb.server(), &server_ns, &tb.server().cpu(1), 11111}};

  SockperfClient::Config client_config() {
    SockperfClient::Config cfg;
    cfg.host = &tb.client();
    cfg.ns = &client_ns;
    cfg.cpus = {&tb.client().cpu(1)};
    cfg.dst_ip = server_ns.ip();
    cfg.dst_port = 11111;
    cfg.stop_at = sim::milliseconds(20);
    return cfg;
  }
};

TEST(SockperfTest, PingPongMeasuresLatency) {
  Rig rig;
  auto cfg = rig.client_config();
  cfg.rate_pps = 1000;
  cfg.reply_every = 1;
  SockperfClient client(rig.tb.client_sim(), cfg);
  client.start();
  rig.tb.run_until(sim::milliseconds(30));
  EXPECT_GT(client.sent(), 15u);
  EXPECT_EQ(client.replies(), client.sent());
  EXPECT_EQ(client.latency().count(), client.replies());
  EXPECT_EQ(rig.server.echoed(), client.sent());
  // One-way latency should be tens of microseconds on an idle testbed.
  EXPECT_GT(client.latency().percentile(0.5), sim::microseconds(5));
  EXPECT_LT(client.latency().percentile(0.5), sim::microseconds(200));
}

TEST(SockperfTest, ThroughputModeNeverReplies) {
  Rig rig;
  auto cfg = rig.client_config();
  cfg.rate_pps = 50'000;
  cfg.reply_every = 0;
  SockperfClient client(rig.tb.client_sim(), cfg);
  client.start();
  rig.tb.run_until(sim::milliseconds(30));
  EXPECT_GT(client.sent(), 500u);
  EXPECT_EQ(client.replies(), 0u);
  EXPECT_EQ(rig.server.echoed(), 0u);
  EXPECT_EQ(rig.server.received(), client.sent());
}

TEST(SockperfTest, SampledRepliesEveryN) {
  Rig rig;
  auto cfg = rig.client_config();
  cfg.rate_pps = 20'000;
  cfg.reply_every = 100;
  cfg.jitter = 0;
  SockperfClient client(rig.tb.client_sim(), cfg);
  client.start();
  rig.tb.run_until(sim::milliseconds(40));
  EXPECT_GT(client.sent(), 300u);
  const auto expected =
      (client.sent() + 99) / 100;  // seq 0, 100, 200, ...
  EXPECT_EQ(client.replies(), expected);
}

TEST(SockperfTest, BurstSendsArriveTogether) {
  Rig rig;
  auto cfg = rig.client_config();
  cfg.rate_pps = 10'000;
  cfg.burst = 8;
  cfg.jitter = 0;
  SockperfClient client(rig.tb.client_sim(), cfg);
  client.start();
  rig.tb.run_until(sim::milliseconds(10));
  // 10 Kpps in bursts of 8 -> a burst every 800 us.
  EXPECT_GE(client.sent(), 96u);
  EXPECT_EQ(client.sent() % 8, 0u);
  EXPECT_EQ(rig.server.received(), client.sent());
}

TEST(SockperfTest, RateIsApproximatelyRespected) {
  Rig rig;
  auto cfg = rig.client_config();
  cfg.rate_pps = 100'000;
  cfg.stop_at = sim::milliseconds(50);
  SockperfClient client(rig.tb.client_sim(), cfg);
  client.start();
  rig.tb.run_until(sim::milliseconds(60));
  const double achieved = static_cast<double>(client.sent()) / 0.050;
  EXPECT_NEAR(achieved, 100'000, 10'000);
}

TEST(SockperfTest, MultiThreadSplitsRate) {
  Rig rig;
  auto cfg = rig.client_config();
  cfg.cpus = {&rig.tb.client().cpu(1), &rig.tb.client().cpu(2)};
  cfg.rate_pps = 100'000;
  cfg.stop_at = sim::milliseconds(20);
  SockperfClient client(rig.tb.client_sim(), cfg);
  client.start();
  rig.tb.run_until(sim::milliseconds(30));
  EXPECT_NEAR(static_cast<double>(client.sent()) / 0.020, 100'000,
              10'000);
  // Two flows: two source ports reach the server.
  EXPECT_EQ(rig.server.received(), client.sent());
}

TEST(SockperfTest, InvalidConfigRejected) {
  Rig rig;
  auto cfg = rig.client_config();
  cfg.rate_pps = 0;
  EXPECT_THROW(SockperfClient(rig.tb.client_sim(), cfg),
               std::invalid_argument);
  cfg = rig.client_config();
  cfg.payload_size = 4;
  EXPECT_THROW(SockperfClient(rig.tb.client_sim(), cfg),
               std::invalid_argument);
  cfg = rig.client_config();
  cfg.burst = 0;
  EXPECT_THROW(SockperfClient(rig.tb.client_sim(), cfg),
               std::invalid_argument);
}

TEST(TcpSenderTest, BulkMessagesDelivered) {
  harness::Testbed tb;
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  auto& sender_ep = tb.client().tcp_create(cli, srv.ip(), 41000, 5201);
  auto& sink_ep = tb.server().tcp_create(srv, cli.ip(), 5201, 41000);
  TcpSinkServer sink({&sink_ep, &tb.server().cpu(1), &tb.server().cost()});

  SockperfTcpSender::Config cfg;
  cfg.endpoint = &sender_ep;
  cfg.cpu = &tb.client().cpu(2);
  cfg.rate_mps = 2000;
  cfg.message_size = 32 * 1024;
  cfg.stop_at = sim::milliseconds(20);
  SockperfTcpSender sender(tb.client_sim(), cfg);
  sender.start();
  tb.run_until(sim::milliseconds(40));
  EXPECT_GE(sender.sent_messages(), 30u);
  EXPECT_EQ(sink.bytes_received(),
            sender.sent_messages() * cfg.message_size);
  // GRO merged the TSO trains at the server NIC.
  EXPECT_GT(tb.server().nic_napi(0).gro_merged(), 100u);
}

TEST(TcpSenderTest, BackpressureSkipsTicks) {
  harness::Testbed tb;
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  auto& sender_ep = tb.client().tcp_create(cli, srv.ip(), 41000, 5201);
  tb.server().tcp_create(srv, cli.ip(), 5201, 41000);
  // No sink app; receiver still ACKs in-kernel, but we throttle with a
  // tiny unacked budget to force skips.
  SockperfTcpSender::Config cfg;
  cfg.endpoint = &sender_ep;
  cfg.cpu = &tb.client().cpu(2);
  cfg.rate_mps = 50'000;
  cfg.message_size = 64 * 1024;
  cfg.max_unacked = 64 * 1024;
  cfg.stop_at = sim::milliseconds(10);
  SockperfTcpSender sender(tb.client_sim(), cfg);
  sender.start();
  tb.run_until(sim::milliseconds(20));
  EXPECT_GT(sender.skipped(), 0u);
}

}  // namespace
}  // namespace prism::apps
