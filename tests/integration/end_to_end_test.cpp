// End-to-end integration tests: full frames through both hosts' simulated
// stacks — native path, overlay path, local bridging, PRISM
// classification, and TCP.
#include <gtest/gtest.h>

#include "harness/testbed.h"

namespace prism {
namespace {

using harness::Testbed;
using harness::TestbedConfig;

/// Runs the testbed a simulated second past its clock — past the last
/// send of every test here — and checks it drained: no event recurs once
/// the testbed is idle.
void drain(Testbed& tb) {
  tb.run_until(tb.client_sim().now() + sim::seconds(1));
  EXPECT_EQ(tb.sim().pending_events(), 0u);
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::string text_of(const std::vector<std::uint8_t>& v) {
  return {v.begin(), v.end()};
}

TEST(EndToEndTest, HostPathUdpDelivery) {
  Testbed tb;
  auto& sock = tb.server().udp_bind(tb.server().root_ns(), 9000);
  tb.client().udp_send(tb.client().root_ns(), tb.client().cpu(1), 5555,
                       tb.server().ip(), 9000, bytes_of("native hello"));
  drain(tb);
  ASSERT_EQ(sock.received(), 1u);
  const auto d = sock.try_recv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(d->payload), "native hello");
  EXPECT_EQ(d->src_ip, tb.client().ip());
  EXPECT_EQ(d->src_port, 5555);
  // Single-stage path: bridge/backlog never touched.
  EXPECT_GT(d->ts.socket_enqueue, 0);
  EXPECT_EQ(d->ts.stage2_done, -1);
  EXPECT_EQ(d->ts.stage3_done, -1);
}

TEST(EndToEndTest, OverlayUdpCrossHost) {
  Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& sock = tb.server().udp_bind(c2, 7000);
  tb.client().udp_send(c1, tb.client().cpu(1), 4444, c2.ip(), 7000,
                       bytes_of("over the overlay"));
  drain(tb);
  ASSERT_EQ(sock.received(), 1u);
  const auto d = sock.try_recv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(d->payload), "over the overlay");
  EXPECT_EQ(d->src_ip, c1.ip());
  // Three-stage path: every stage timestamp populated, in order.
  EXPECT_GE(d->ts.stage1_done, d->ts.nic_rx);
  EXPECT_GE(d->ts.stage2_done, d->ts.stage1_done);
  EXPECT_GE(d->ts.stage3_done, d->ts.stage2_done);
  EXPECT_GE(d->ts.socket_enqueue, d->ts.stage3_done);
}

TEST(EndToEndTest, OverlayUdpReplyPath) {
  Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& server_sock = tb.server().udp_bind(c2, 7000);
  auto& client_sock = tb.client().udp_bind(c1, 4444);
  // Server echoes on arrival.
  server_sock.set_on_readable([&] {
    auto d = server_sock.try_recv();
    ASSERT_TRUE(d.has_value());
    tb.server().udp_send(c2, tb.server().cpu(1), 7000, d->src_ip,
                         d->src_port, std::move(d->payload));
  });
  tb.client().udp_send(c1, tb.client().cpu(1), 4444, c2.ip(), 7000,
                       bytes_of("ping"));
  drain(tb);
  ASSERT_EQ(client_sock.received(), 1u);
  const auto d = client_sock.try_recv();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(d->payload), "ping");
  EXPECT_EQ(d->src_ip, c2.ip());
}

TEST(EndToEndTest, SameHostContainerToContainer) {
  Testbed tb;
  auto& a = tb.add_server_container("a");
  auto& b = tb.add_server_container("b");
  auto& sock = tb.server().udp_bind(b, 8000);
  tb.server().udp_send(a, tb.server().cpu(1), 1234, b.ip(), 8000,
                       bytes_of("local"));
  drain(tb);
  ASSERT_EQ(sock.received(), 1u);
  EXPECT_EQ(text_of(sock.try_recv()->payload), "local");
  // Never crossed the wire.
  EXPECT_EQ(tb.wire().frames_delivered(), 0u);
}

TEST(EndToEndTest, PrismClassifiesHighPriorityFlows) {
  Testbed tb;
  tb.set_mode(kernel::NapiMode::kPrismBatch);
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& sock = tb.server().udp_bind(c2, 7000);
  auto& other = tb.server().udp_bind(c2, 7001);
  tb.server().priority_db().add(c2.ip(), 7000);

  tb.client().udp_send(c1, tb.client().cpu(1), 4444, c2.ip(), 7000,
                       bytes_of("fast"));
  tb.client().udp_send(c1, tb.client().cpu(1), 4444, c2.ip(), 7001,
                       bytes_of("slow"));
  drain(tb);
  ASSERT_EQ(sock.received(), 1u);
  ASSERT_EQ(other.received(), 1u);
  EXPECT_TRUE(sock.try_recv()->high_priority);
  EXPECT_FALSE(other.try_recv()->high_priority);
}

TEST(EndToEndTest, VanillaIgnoresPriorityDb) {
  Testbed tb;  // vanilla mode
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& sock = tb.server().udp_bind(c2, 7000);
  tb.server().priority_db().add(c2.ip(), 7000);
  tb.client().udp_send(c1, tb.client().cpu(1), 4444, c2.ip(), 7000,
                       bytes_of("x"));
  drain(tb);
  ASSERT_EQ(sock.received(), 1u);
  EXPECT_FALSE(sock.try_recv()->high_priority);
}

TEST(EndToEndTest, ProcInterfaceControlsModeAndPriorities) {
  Testbed tb;
  auto& proc = tb.server().proc();
  EXPECT_EQ(proc.read("prism/mode"), "vanilla");
  EXPECT_TRUE(proc.write("prism/mode", "sync"));
  EXPECT_EQ(tb.server().mode(), kernel::NapiMode::kPrismSync);
  EXPECT_TRUE(proc.write("prism/priority", "add 172.17.0.2 7000"));
  EXPECT_TRUE(tb.server().priority_db().contains(
      net::Ipv4Addr::of(172, 17, 0, 2), 7000));
  EXPECT_EQ(proc.read("prism/priority"), "1");
  EXPECT_TRUE(proc.write("prism/priority", "del 172.17.0.2 7000"));
  EXPECT_TRUE(tb.server().priority_db().empty());
  EXPECT_FALSE(proc.write("prism/mode", "warp-speed"));
  EXPECT_FALSE(proc.write("prism/priority", "add not-an-ip 1"));
}

TEST(EndToEndTest, UnroutableFramesAreDroppedAndCounted) {
  Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  (void)c2;
  // No socket bound at the destination port.
  tb.client().udp_send(c1, tb.client().cpu(1), 4444, c2.ip(), 9999,
                       bytes_of("nobody home"));
  drain(tb);
  EXPECT_EQ(tb.server().deliverer().no_socket_drops(), 1u);
}

TEST(EndToEndTest, UdpPayloadBeyondMtuRejected) {
  Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  std::vector<std::uint8_t> big(1500, 0xab);
  EXPECT_THROW(tb.client().udp_send(c1, tb.client().cpu(1), 1, c1.ip(), 2,
                                    std::move(big)),
               std::invalid_argument);
}

// --------------------------------------------------------------- TCP

TEST(EndToEndTest, TcpBulkTransferAcrossOverlay) {
  Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& sender = tb.client().tcp_create(c1, c2.ip(), 40000, 5001);
  auto& receiver = tb.server().tcp_create(c2, c1.ip(), 5001, 40000);

  std::vector<std::uint8_t> received;
  receiver.on_data = [&](std::span<const std::uint8_t> data, sim::Time) {
    received.insert(received.end(), data.begin(), data.end());
  };

  std::vector<std::uint8_t> message(64 * 1024);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i * 31);
  }
  sender.send(message, tb.client().cpu(1));
  drain(tb);

  EXPECT_EQ(received, message);
  // Sender fully acknowledged; no retransmissions on a clean link.
  EXPECT_EQ(sender.unacked_bytes(), 0u);
  EXPECT_EQ(sender.retransmissions(), 0u);
  // GRO merged the 45-segment TSO train.
  EXPECT_GT(tb.server().nic_napi(0).gro_merged(), 30u);
}

TEST(EndToEndTest, TcpHostPathTransfer) {
  Testbed tb;
  auto& sender = tb.client().tcp_create(tb.client().root_ns(),
                                        tb.server().ip(), 40000, 5001);
  auto& receiver = tb.server().tcp_create(tb.server().root_ns(),
                                          tb.client().ip(), 5001, 40000);
  std::size_t total = 0;
  receiver.on_data = [&](std::span<const std::uint8_t> data, sim::Time) {
    total += data.size();
  };
  sender.send(std::vector<std::uint8_t>(10000, 0x5a), tb.client().cpu(1));
  drain(tb);
  EXPECT_EQ(total, 10000u);
  EXPECT_EQ(receiver.rcv_nxt(), 1u + 10000u);
}

TEST(EndToEndTest, TcpRequestResponse) {
  Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& client_ep = tb.client().tcp_create(c1, c2.ip(), 40000, 80);
  auto& server_ep = tb.server().tcp_create(c2, c1.ip(), 80, 40000);

  std::string got_request, got_response;
  server_ep.on_data = [&](std::span<const std::uint8_t> data, sim::Time) {
    got_request.append(data.begin(), data.end());
    server_ep.send(bytes_of("RESPONSE"), tb.server().cpu(1));
  };
  client_ep.on_data = [&](std::span<const std::uint8_t> data, sim::Time) {
    got_response.append(data.begin(), data.end());
  };
  client_ep.send(bytes_of("REQUEST"), tb.client().cpu(1));
  drain(tb);
  EXPECT_EQ(got_request, "REQUEST");
  EXPECT_EQ(got_response, "RESPONSE");
}

TEST(EndToEndTest, TcpRecoversFromDroppedSegments) {
  // Shrink the server ring so a burst overflows it; the RTO must recover
  // the stream.
  TestbedConfig cfg;
  cfg.nic_ring_capacity = 16;
  Testbed tb(cfg);
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& sender = tb.client().tcp_create(c1, c2.ip(), 40000, 5001);
  auto& receiver = tb.server().tcp_create(c2, c1.ip(), 5001, 40000);
  std::size_t total = 0;
  receiver.on_data = [&](std::span<const std::uint8_t> data, sim::Time) {
    total += data.size();
  };
  // 128 KB burst into a 16-slot ring: drops guaranteed.
  sender.send(std::vector<std::uint8_t>(128 * 1024, 0x77),
              tb.client().cpu(1));
  tb.run_until(sim::seconds(2));
  EXPECT_EQ(total, 128u * 1024u);
  EXPECT_GT(sender.retransmissions(), 0u);
  EXPECT_GT(tb.server().nic().rx_dropped(), 0u);
}

TEST(EndToEndTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Testbed tb;
    auto& c1 = tb.add_client_container("c1");
    auto& c2 = tb.add_server_container("c2");
    auto& sock = tb.server().udp_bind(c2, 7000);
    for (int i = 0; i < 50; ++i) {
      tb.client_sim().schedule_at(i * 10'000, [&, i] {
        tb.client().udp_send(c1, tb.client().cpu(1), 4444, c2.ip(), 7000,
                             std::vector<std::uint8_t>(64, 0));
      });
    }
    drain(tb);
    std::vector<sim::Time> arrivals;
    while (auto d = sock.try_recv()) arrivals.push_back(d->ts.socket_enqueue);
    return arrivals;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace prism
