#include "kernel/socket.h"

#include <gtest/gtest.h>

#include "kernel/cost_model.h"
#include "kernel/tcp.h"
#include "overlay/netns.h"
#include "sim/simulator.h"

namespace prism::kernel {
namespace {

Datagram make_datagram(int n) {
  Datagram d;
  d.src_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  d.src_port = 1000;
  d.payload = std::vector<std::uint8_t>(static_cast<std::size_t>(n), 0x11);
  return d;
}

TEST(UdpSocketTest, EnqueueHappensAtScheduledInstant) {
  sim::Simulator sim;
  UdpSocket sock(sim, 80);
  sock.enqueue(make_datagram(4), 1000);
  EXPECT_FALSE(sock.has_data());  // not yet: instant is in the future
  sim.run();
  EXPECT_EQ(sim.now(), 1000);
  ASSERT_TRUE(sock.has_data());
  EXPECT_EQ(sock.try_recv()->ts.socket_enqueue, -1);  // field set by caller
}

TEST(UdpSocketTest, FifoOrder) {
  sim::Simulator sim;
  UdpSocket sock(sim, 80);
  sock.enqueue(make_datagram(1), 100);
  sock.enqueue(make_datagram(2), 50);
  sim.run();
  EXPECT_EQ(sock.try_recv()->payload.size(), 2u);  // earlier instant first
  EXPECT_EQ(sock.try_recv()->payload.size(), 1u);
}

TEST(UdpSocketTest, OnReadableFiresPerEnqueue) {
  sim::Simulator sim;
  UdpSocket sock(sim, 80);
  int notified = 0;
  sock.set_on_readable([&] { ++notified; });
  sock.enqueue(make_datagram(1), 10);
  sock.enqueue(make_datagram(2), 20);
  sim.run();
  EXPECT_EQ(notified, 2);
}

TEST(UdpSocketTest, CapacityOverflowDrops) {
  sim::Simulator sim;
  UdpSocket sock(sim, 80, /*capacity=*/2);
  for (int i = 0; i < 5; ++i) sock.enqueue(make_datagram(i), 10);
  sim.run();
  EXPECT_EQ(sock.queue_depth(), 2u);
  EXPECT_EQ(sock.received(), 2u);
  EXPECT_EQ(sock.dropped(), 3u);
}

TEST(UdpSocketTest, TryRecvOnEmptyIsNull) {
  sim::Simulator sim;
  UdpSocket sock(sim, 80);
  EXPECT_FALSE(sock.try_recv().has_value());
}

TEST(SocketTableTest, BindLookupUnbind) {
  sim::Simulator sim;
  SocketTable table;
  UdpSocket a(sim, 80), b(sim, 81);
  table.bind_udp(a);
  table.bind_udp(b);
  EXPECT_EQ(table.lookup_udp(80), &a);
  EXPECT_EQ(table.lookup_udp(81), &b);
  EXPECT_EQ(table.lookup_udp(82), nullptr);
  table.unbind_udp(80);
  EXPECT_EQ(table.lookup_udp(80), nullptr);
}

TEST(SocketTableTest, DuplicateBindThrows) {
  sim::Simulator sim;
  SocketTable table;
  UdpSocket a(sim, 80), b(sim, 80);
  table.bind_udp(a);
  EXPECT_THROW(table.bind_udp(b), std::logic_error);
}

TEST(SocketTableTest, TcpRegistrationRoundTrip) {
  sim::Simulator sim;
  CostModel cost;
  overlay::Netns ns("ns", net::Ipv4Addr::of(10, 0, 0, 2),
                    net::MacAddr::make(1), false);
  TcpEndpoint::Config cfg;
  cfg.ns = &ns;
  cfg.local_ip = ns.ip();
  cfg.remote_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  cfg.local_port = 80;
  cfg.remote_port = 40000;
  TcpEndpoint ep(sim, cost, cfg);

  SocketTable table;
  table.register_tcp(ep.incoming_flow(), ep);
  EXPECT_EQ(table.lookup_tcp(ep.incoming_flow()), &ep);
  EXPECT_THROW(table.register_tcp(ep.incoming_flow(), ep),
               std::logic_error);
  table.unregister_tcp(ep.incoming_flow());
  EXPECT_EQ(table.lookup_tcp(ep.incoming_flow()), nullptr);
}

}  // namespace
}  // namespace prism::kernel
