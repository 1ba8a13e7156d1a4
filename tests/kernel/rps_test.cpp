// Tests for Receive Packet Steering at the bridge->veth boundary.
//
// RPS is the scalability mechanism vanilla NAPI's two-list design serves
// (paper §II-A footnote 1, §III-A): it balances *distinct flows* across
// CPUs but cannot help a single flow — the paper's argument for
// streamlining instead.
#include <gtest/gtest.h>

#include "apps/sockperf.h"
#include "harness/testbed.h"

namespace prism::kernel {
namespace {

/// Runs the testbed a simulated second past its clock — past the last
/// send of every test here — and checks it drained.
void drain(harness::Testbed& tb) {
  tb.run_until(tb.client_sim().now() + sim::seconds(1));
  EXPECT_EQ(tb.sim().pending_events(), 0u);
}

harness::TestbedConfig rps_config() {
  harness::TestbedConfig tc;
  tc.server_rps_cpus = {0, 1, 2, 3};
  return tc;
}

TEST(RpsTest, ManyFlowsSpreadAcrossCpus) {
  harness::Testbed tb(rps_config());
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  auto& sock = tb.server().udp_bind(srv, 7000);
  // 64 distinct flows (source ports).
  for (std::uint16_t p = 0; p < 64; ++p) {
    tb.client().udp_send(cli, tb.client().cpu(1),
                         static_cast<std::uint16_t>(30000 + p), srv.ip(),
                         7000, std::vector<std::uint8_t>(32, 0));
  }
  drain(tb);
  EXPECT_EQ(sock.received(), 64u);
  // Steering happened for flows hashed away from CPU 0.
  auto& bridge = tb.server().bridge(tb.overlay().vni());
  EXPECT_GT(bridge.stage(tb.server().default_rx_cpu()).rps_steered(),
            20u);
}

TEST(RpsTest, SingleFlowStaysOnOneCpu) {
  harness::Testbed tb(rps_config());
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  auto& sock = tb.server().udp_bind(srv, 7000);
  for (int i = 0; i < 50; ++i) {
    tb.client().udp_send(cli, tb.client().cpu(1), 30000, srv.ip(), 7000,
                         std::vector<std::uint8_t>(32, 0));
  }
  drain(tb);
  EXPECT_EQ(sock.received(), 50u);
  auto& bridge = tb.server().bridge(tb.overlay().vni());
  const auto steered =
      bridge.stage(tb.server().default_rx_cpu()).rps_steered();
  // All 50 packets hash identically: either all stay local or all go to
  // the same remote CPU — never spread.
  EXPECT_TRUE(steered == 0 || steered == 50u) << steered;
}

TEST(RpsTest, DeliveryStillCorrectUnderSteering) {
  harness::Testbed tb(rps_config());
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  auto& sock = tb.server().udp_bind(srv, 7000);
  for (std::uint16_t p = 0; p < 32; ++p) {
    std::vector<std::uint8_t> payload(32,
                                      static_cast<std::uint8_t>(p));
    tb.client().udp_send(cli, tb.client().cpu(1),
                         static_cast<std::uint16_t>(30000 + p), srv.ip(),
                         7000, std::move(payload));
  }
  drain(tb);
  ASSERT_EQ(sock.received(), 32u);
  // Payload integrity across the steered path.
  std::set<std::uint8_t> seen;
  while (auto d = sock.try_recv()) {
    ASSERT_FALSE(d->payload().empty());
    seen.insert(d->payload()[0]);
  }
  EXPECT_EQ(seen.size(), 32u);
}

TEST(RpsTest, PrismSyncHighPriorityBypassesSteering) {
  harness::Testbed tb(rps_config());
  tb.set_mode(NapiMode::kPrismSync);
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  auto& sock = tb.server().udp_bind(srv, 7000);
  tb.server().priority_db().add(srv.ip(), 7000);
  for (std::uint16_t p = 0; p < 32; ++p) {
    tb.client().udp_send(cli, tb.client().cpu(1),
                         static_cast<std::uint16_t>(30000 + p), srv.ip(),
                         7000, std::vector<std::uint8_t>(32, 0));
  }
  drain(tb);
  EXPECT_EQ(sock.received(), 32u);
  auto& bridge = tb.server().bridge(tb.overlay().vni());
  // Run-to-completion happens before netif_rx: nothing is steered.
  EXPECT_EQ(bridge.stage(tb.server().default_rx_cpu()).rps_steered(),
            0u);
}

TEST(RpsTest, InvalidRpsCpuRejected) {
  sim::Simulator sim;
  HostConfig cfg;
  cfg.ip = net::Ipv4Addr::of(10, 0, 0, 9);
  cfg.num_cpus = 2;
  cfg.rps_cpus = {0, 7};
  Host host(sim, cfg);
  EXPECT_THROW(host.bridge(42), std::invalid_argument);
}

TEST(RpsTest, RaisesMultiFlowCapacity) {
  // Aggregate throughput with many flows: RPS across 4 CPUs must beat
  // the single-core pipeline. (The paper's counterpoint — a single flow
  // gains nothing — is SingleFlowStaysOnOneCpu above.)
  auto delivered = [](bool rps) {
    harness::TestbedConfig tc;
    if (rps) tc.server_rps_cpus = {0, 1, 2, 3};
    harness::Testbed tb(tc);
    auto& cli = tb.add_client_container("cli");
    auto& srv = tb.add_server_container("srv");
    apps::SockperfServer server(tb.server_sim(), {&tb.server(), &srv,
                                           &tb.server().cpu(1), 11111});
    apps::SockperfClient::Config cc;
    cc.host = &tb.client();
    cc.ns = &cli;
    // 4 sender threads = 4 distinct flows.
    cc.cpus = {&tb.client().cpu(1), &tb.client().cpu(2),
               &tb.client().cpu(3), &tb.client().cpu(4)};
    cc.dst_ip = srv.ip();
    cc.dst_port = 11111;
    cc.rate_pps = 600'000;
    cc.burst = 32;
    cc.stop_at = sim::milliseconds(100);
    apps::SockperfClient client(tb.client_sim(), cc);
    client.start();
    tb.run_until(sim::milliseconds(130));
    return server.received();
  };
  const auto without = delivered(false);
  const auto with = delivered(true);
  EXPECT_GT(with, without + without / 10);
}

}  // namespace
}  // namespace prism::kernel
