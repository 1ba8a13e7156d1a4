#include "apps/http_server.h"

#include <gtest/gtest.h>

#include "harness/testbed.h"

namespace prism::apps {
namespace {

struct Rig {
  harness::Testbed tb;
  overlay::Netns& server_ns = tb.add_server_container("nginx");
  overlay::Netns& client_ns = tb.add_client_container("wrk");
  kernel::TcpEndpoint& client_ep =
      tb.client().tcp_create(client_ns, server_ns.ip(), 40000, 80);
  kernel::TcpEndpoint& server_ep =
      tb.server().tcp_create(server_ns, client_ns.ip(), 80, 40000);

  HttpServer::Config server_config() {
    HttpServer::Config cfg;
    cfg.host = &tb.server();
    cfg.ns = &server_ns;
    cfg.cpu = &tb.server().cpu(1);
    cfg.connection = &server_ep;
    return cfg;
  }

  Wrk2Client::Config client_config() {
    Wrk2Client::Config cfg;
    cfg.host = &tb.client();
    cfg.ns = &client_ns;
    cfg.cpu = &tb.client().cpu(1);
    cfg.connection = &client_ep;
    cfg.stop_at = sim::milliseconds(20);
    return cfg;
  }
};

TEST(HttpTest, RequestsGetResponses) {
  Rig rig;
  HttpServer server(rig.server_config());
  auto cc = rig.client_config();
  cc.rate_rps = 2000;
  Wrk2Client client(rig.tb.client_sim(), cc);
  client.start();
  rig.tb.run_until(sim::milliseconds(40));
  EXPECT_GT(client.sent(), 30u);
  EXPECT_EQ(client.completed(), client.sent());
  EXPECT_EQ(server.requests_served(), client.sent());
  EXPECT_GT(client.requests_per_second(), 0.0);
}

TEST(HttpTest, ResponsesPaddedToFileSize) {
  Rig rig;
  auto sc = rig.server_config();
  sc.response_size = 900;
  HttpServer server(sc);
  // Track delivered bytes on the client endpoint through the framer path:
  // a completed response implies a full 900-byte body arrived intact.
  auto cc = rig.client_config();
  cc.rate_rps = 500;
  Wrk2Client client(rig.tb.client_sim(), cc);
  client.start();
  rig.tb.run_until(sim::milliseconds(40));
  EXPECT_GT(client.completed(), 5u);
}

TEST(HttpTest, LatencyMeasuredFromScheduledSend) {
  Rig rig;
  HttpServer server(rig.server_config());
  auto cc = rig.client_config();
  cc.rate_rps = 1000;
  Wrk2Client client(rig.tb.client_sim(), cc);
  client.start();
  rig.tb.run_until(sim::milliseconds(40));
  ASSERT_GT(client.latency().count(), 0u);
  // Full HTTP round trip over the overlay: more than a bare wire RTT.
  EXPECT_GT(client.latency().min(), sim::microseconds(10));
  EXPECT_LT(client.latency().percentile(0.99), sim::milliseconds(2));
}

TEST(HttpTest, InvalidConfigsRejected) {
  Rig rig;
  auto sc = rig.server_config();
  sc.response_size = 4;
  EXPECT_THROW(HttpServer{sc}, std::invalid_argument);
  auto cc = rig.client_config();
  cc.rate_rps = 0;
  EXPECT_THROW(Wrk2Client(rig.tb.client_sim(), cc), std::invalid_argument);
  cc = rig.client_config();
  cc.request_size = 2;
  EXPECT_THROW(Wrk2Client(rig.tb.client_sim(), cc), std::invalid_argument);
}

}  // namespace
}  // namespace prism::apps
