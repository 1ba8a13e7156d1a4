// Host-level unit tests: configuration validation, namespace plumbing,
// GRO byte-level correctness, and multi-overlay isolation.
#include "kernel/host.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "harness/testbed.h"

namespace prism::kernel {
namespace {

/// Runs the testbed a simulated second past its clock — past the last
/// send of every test here — and checks it drained: no event recurs once
/// the testbed is idle.
void drain(harness::Testbed& tb) {
  tb.run_until(tb.client_sim().now() + sim::seconds(1));
  EXPECT_EQ(tb.sim().pending_events(), 0u);
}

TEST(HostTest, ConfigValidation) {
  sim::Simulator sim;
  HostConfig bad;
  bad.ip = net::Ipv4Addr::of(10, 0, 0, 1);
  bad.num_cpus = 0;
  EXPECT_THROW(Host(sim, bad), std::invalid_argument);

  HostConfig mismatch;
  mismatch.ip = net::Ipv4Addr::of(10, 0, 0, 1);
  mismatch.nic_queues = 2;
  mismatch.queue_cpu_map = {0};
  EXPECT_THROW(Host(sim, mismatch), std::invalid_argument);

  HostConfig out_of_range;
  out_of_range.ip = net::Ipv4Addr::of(10, 0, 0, 1);
  out_of_range.num_cpus = 2;
  out_of_range.queue_cpu_map = {5};
  EXPECT_THROW(Host(sim, out_of_range), std::invalid_argument);
}

TEST(HostTest, MacDerivedFromIpWhenUnset) {
  sim::Simulator sim;
  HostConfig cfg;
  cfg.ip = net::Ipv4Addr::of(10, 0, 0, 7);
  Host host(sim, cfg);
  EXPECT_NE(host.mac(), net::MacAddr{});
  EXPECT_EQ(host.root_ns().mac(), host.mac());
  EXPECT_FALSE(host.root_ns().is_container());
}

TEST(HostTest, BridgeIsPerVniAndIdempotent) {
  sim::Simulator sim;
  HostConfig cfg;
  cfg.ip = net::Ipv4Addr::of(10, 0, 0, 7);
  Host host(sim, cfg);
  auto& b1 = host.bridge(100);
  auto& b1_again = host.bridge(100);
  auto& b2 = host.bridge(200);
  EXPECT_EQ(&b1, &b1_again);
  EXPECT_NE(&b1, &b2);
  EXPECT_EQ(b1.vni(), 100u);
  EXPECT_EQ(b2.vni(), 200u);
}

// Reading a VNI's FDB creates no bridge: only bridge(), add_container,
// adopt_container and add_overlay_route do.
TEST(HostTest, FdbOfUnknownVniThrows) {
  sim::Simulator sim;
  HostConfig cfg;
  cfg.ip = net::Ipv4Addr::of(10, 0, 0, 7);
  Host host(sim, cfg);
  EXPECT_THROW(host.fdb(100), std::out_of_range);
  host.bridge(100);
  EXPECT_EQ(host.fdb(100).size(), 0u);
  EXPECT_THROW(host.fdb(200), std::out_of_range);
}

TEST(HostTest, MaxUdpPayloadDependsOnPath) {
  sim::Simulator sim;
  HostConfig cfg;
  cfg.ip = net::Ipv4Addr::of(10, 0, 0, 7);
  Host host(sim, cfg);
  auto& container = host.add_container("c", net::Ipv4Addr::of(172, 17, 0, 2),
                                       100);
  // Host path: full MTU minus IP+UDP; overlay: minus VXLAN overhead too.
  EXPECT_EQ(host.max_udp_payload(host.root_ns()), 1500u - 28u);
  EXPECT_EQ(host.max_udp_payload(container),
            1500u - net::kEncapHeadroom - 28u);
}

TEST(HostTest, SeparateOverlaysAreIsolated) {
  // Two overlay networks across the same pair of hosts: containers on
  // different VNIs must not receive each other's traffic even with
  // matching inner addresses.
  harness::Testbed tb;
  auto& a1 = tb.overlay().add_container(tb.client(), "a1",
                                        net::Ipv4Addr::of(172, 17, 0, 2));
  auto& a2 = tb.overlay().add_container(tb.server(), "a2",
                                        net::Ipv4Addr::of(172, 17, 0, 3));
  overlay::OverlayNetwork other(99);
  auto& b1 = other.add_container(tb.client(), "b1",
                                 net::Ipv4Addr::of(172, 17, 0, 2));
  auto& b2 = other.add_container(tb.server(), "b2",
                                 net::Ipv4Addr::of(172, 17, 0, 3));
  (void)b1;

  auto& sock_a = tb.server().udp_bind(a2, 7000);
  auto& sock_b = tb.server().udp_bind(b2, 7000);
  tb.client().udp_send(a1, tb.client().cpu(1), 1000, a2.ip(), 7000,
                       std::vector<std::uint8_t>(32, 0xaa));
  drain(tb);
  EXPECT_EQ(sock_a.received(), 1u);
  EXPECT_EQ(sock_b.received(), 0u);
}

// A container frame too short to hold an Ethernet header never reaches
// the NIC, and the ledger counts it as a malformed drop.
TEST(HostTest, ShortContainerFrameIsACountedDrop) {
  harness::Testbed tb;
  auto& cli = tb.add_client_container("cli");
  const std::vector<std::uint8_t> ten(10, 0xab);
  cli.egress(net::PacketBuf::with_headroom(0, ten));
  drain(tb);
  EXPECT_EQ(tb.client().faults().drops.count(fault::DropReason::kMalformed, 0),
            1u);
  EXPECT_EQ(tb.client().nic().tx_frames(), 0u);
}

TEST(HostTest, GroPreservesEveryByteAcrossMerges) {
  // A multi-segment TSO send whose payload is a strict byte pattern:
  // whatever GRO merges, the receiving stream must match exactly.
  harness::Testbed tb;
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  auto& tx = tb.client().tcp_create(cli, srv.ip(), 40000, 5001);
  auto& rx = tb.server().tcp_create(srv, cli.ip(), 5001, 40000);
  std::vector<std::uint8_t> got;
  rx.on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    got.insert(got.end(), d.begin(), d.end());
  };
  std::vector<std::uint8_t> sent(50'000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 24);
  }
  tx.send(sent, tb.client().cpu(1));
  drain(tb);
  EXPECT_EQ(got, sent);
  EXPECT_GT(tb.server().nic_napi(0).gro_merged(), 20u);
}

TEST(HostTest, PriorityCheckChargedOnlyInPrismModes) {
  // The per-packet classification cost must not be charged in vanilla.
  // Use an absurdly large check cost so the comparison is unambiguous
  // against mode-dependent batching noise.
  auto busy_time = [](NapiMode mode) {
    harness::TestbedConfig tc;
    tc.mode = mode;
    tc.cost.priority_check = sim::microseconds(100);
    harness::Testbed tb(tc);
    auto& cli = tb.add_client_container("cli");
    auto& srv = tb.add_server_container("srv");
    tb.server().udp_bind(srv, 7000);
    tb.server().priority_db().add(srv.ip(), 9999);  // non-matching entry
    for (int i = 0; i < 50; ++i) {
      tb.client().udp_send(cli, tb.client().cpu(1), 1000, srv.ip(), 7000,
                           std::vector<std::uint8_t>(32, 0));
    }
    drain(tb);
    return tb.server_rx_cpu().accounting().busy_time();
  };
  const auto vanilla = busy_time(NapiMode::kVanilla);
  const auto batch = busy_time(NapiMode::kPrismBatch);
  // 50 packets x 100 us of classification dominates any batching noise.
  EXPECT_GT(batch, vanilla + 50 * sim::microseconds(90));
}

TEST(HostTest, SetModePropagatesToAllCpus) {
  sim::Simulator sim;
  HostConfig cfg;
  cfg.ip = net::Ipv4Addr::of(10, 0, 0, 7);
  cfg.num_cpus = 3;
  Host host(sim, cfg);
  host.set_mode(NapiMode::kPrismSync);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(host.engine(i).mode(), NapiMode::kPrismSync);
  }
}

}  // namespace
}  // namespace prism::kernel
