#include "kernel/tcp.h"

#include <gtest/gtest.h>

#include "kernel/cpu.h"
#include "net/packet.h"
#include "overlay/netns.h"
#include "sim/simulator.h"

namespace prism::kernel {
namespace {

// Loopback rig: two endpoints whose egress delivers directly into the
// peer (optionally dropping selected segments), bypassing the full stack
// so the TCP state machine is tested in isolation.
struct Rig {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu_a{sim, cost, 0};
  Cpu cpu_b{sim, cost, 1};
  overlay::Netns ns_a{"a", net::Ipv4Addr::of(10, 0, 0, 1),
                      net::MacAddr::make(1), false};
  overlay::Netns ns_b{"b", net::Ipv4Addr::of(10, 0, 0, 2),
                      net::MacAddr::make(2), false};
  std::unique_ptr<TcpEndpoint> a;
  std::unique_ptr<TcpEndpoint> b;
  int drop_next_data_segments = 0;
  std::uint64_t forwarded = 0;

  explicit Rig(std::size_t mss = 1400) {
    ns_a.add_neighbor(ns_b.ip(), ns_b.mac());
    ns_b.add_neighbor(ns_a.ip(), ns_a.mac());
    TcpEndpoint::Config ca;
    ca.ns = &ns_a;
    ca.local_ip = ns_a.ip();
    ca.remote_ip = ns_b.ip();
    ca.local_port = 1000;
    ca.remote_port = 2000;
    ca.mss = mss;
    ca.rto = sim::milliseconds(5);
    TcpEndpoint::Config cb = ca;
    cb.ns = &ns_b;
    cb.local_ip = ns_b.ip();
    cb.remote_ip = ns_a.ip();
    cb.local_port = 2000;
    cb.remote_port = 1000;
    a = std::make_unique<TcpEndpoint>(sim, cost, ca);
    b = std::make_unique<TcpEndpoint>(sim, cost, cb);
    ns_a.egress = [this](net::PacketBuf f) { deliver(*b, std::move(f)); };
    ns_b.egress = [this](net::PacketBuf f) { deliver(*a, std::move(f)); };
  }

  void deliver(TcpEndpoint& dst, net::PacketBuf frame) {
    const auto parsed = net::parse_frame(frame.bytes());
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->tcp.has_value());
    if (!parsed->l4_payload.empty() && drop_next_data_segments > 0) {
      --drop_next_data_segments;
      return;
    }
    ++forwarded;
    // Small propagation so handle runs as its own event.
    std::vector<std::uint8_t> payload(parsed->l4_payload.begin(),
                                      parsed->l4_payload.end());
    const auto header = *parsed->tcp;
    sim.schedule(1000, [this, &dst, header, payload = std::move(payload)] {
      dst.handle_segment(header, payload, sim.now());
    });
  }
};

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 131);
  }
  return v;
}

TEST(TcpTest, SmallSendDeliversInOrder) {
  Rig rig;
  std::vector<std::uint8_t> got;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    got.insert(got.end(), d.begin(), d.end());
  };
  const auto msg = pattern(100);
  rig.a->send(msg, rig.cpu_a);
  rig.sim.run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(rig.b->rcv_nxt(), 101u);
}

TEST(TcpTest, LargeSendSegmentsAtMss) {
  Rig rig(/*mss=*/1000);
  std::size_t chunks = 0;
  std::size_t total = 0;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    ++chunks;
    total += d.size();
  };
  rig.a->send(pattern(6500), rig.cpu_a);
  rig.sim.run();
  EXPECT_EQ(total, 6500u);
  EXPECT_EQ(chunks, 7u);  // 6 full + 1 partial segment
}

TEST(TcpTest, AcksAdvanceSndUna) {
  Rig rig;
  rig.b->on_data = [](std::span<const std::uint8_t>, sim::Time) {};
  rig.a->send(pattern(500), rig.cpu_a);
  rig.sim.run();
  EXPECT_EQ(rig.a->snd_una(), rig.a->snd_nxt());
  EXPECT_EQ(rig.a->unacked_bytes(), 0u);
  EXPECT_GT(rig.b->acks_sent(), 0u);
}

TEST(TcpTest, RetransmitsAfterLoss) {
  Rig rig(/*mss=*/1000);
  std::size_t total = 0;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    total += d.size();
  };
  rig.drop_next_data_segments = 2;
  rig.a->send(pattern(5000), rig.cpu_a);
  rig.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(total, 5000u);
  EXPECT_GT(rig.a->retransmissions(), 0u);
  EXPECT_EQ(rig.a->unacked_bytes(), 0u);
}

TEST(TcpTest, AckStreamKeepsOneRtoTimer) {
  Rig rig(/*mss=*/100);
  rig.drop_next_data_segments = 1000;  // the ACKs below come from the test
  rig.a->send(pattern(200 * 100), rig.cpu_a);
  rig.sim.run_until(sim::microseconds(100));
  ASSERT_EQ(rig.a->unacked_bytes(), 200u * 100u);
  const std::size_t baseline = rig.sim.pending_events();  // the RTO timer

  net::TcpHeader ack;
  ack.src_port = 2000;
  ack.dst_port = 1000;
  ack.flags = net::TcpFlags::kAck;
  sim::Time last_ack = 0;
  for (std::uint32_t k = 1; k <= 150; ++k) {
    ack.ack = 1 + 100 * k;
    last_ack = rig.sim.now();
    rig.a->handle_segment(ack, {}, last_ack);
    // An ACK moves the deadline; it does not queue another timer.
    ASSERT_LE(rig.sim.pending_events(), baseline + 1) << "after ACK " << k;
    rig.sim.run_until(rig.sim.now() + sim::microseconds(10));
  }
  EXPECT_EQ(rig.a->unacked_bytes(), 50u * 100u);
  EXPECT_EQ(rig.a->snd_una(), 1u + 150u * 100u);

  // The timer still expires one RTO after the last ACK, not earlier.
  rig.sim.run_until(last_ack + sim::milliseconds(5) - 1);
  EXPECT_EQ(rig.a->retransmissions(), 0u);
  rig.sim.run_until(last_ack + sim::milliseconds(5));
  EXPECT_EQ(rig.a->retransmissions(), 1u);
}

TEST(TcpTest, OutOfOrderSegmentsReassembled) {
  Rig rig(/*mss=*/100);
  // Deliver segment 2 before segment 1 by dropping 1 and letting the
  // retransmit fill the hole.
  std::vector<std::uint8_t> got;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    got.insert(got.end(), d.begin(), d.end());
  };
  rig.drop_next_data_segments = 1;  // first segment lost; 2..N buffered
  const auto msg = pattern(500);
  rig.a->send(msg, rig.cpu_a);
  rig.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(got, msg);
}

TEST(TcpTest, DuplicateSegmentsIgnored) {
  Rig rig;
  std::size_t total = 0;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    total += d.size();
  };
  const auto msg = pattern(200);
  rig.a->send(msg, rig.cpu_a);
  rig.sim.run();
  // Replay the same segment directly.
  net::TcpHeader dup;
  dup.src_port = 1000;
  dup.dst_port = 2000;
  dup.seq = 1;
  dup.flags = net::TcpFlags::kAck;
  rig.b->handle_segment(dup, msg, rig.sim.now());
  rig.sim.run();
  EXPECT_EQ(total, 200u);  // not double-delivered
}

TEST(TcpTest, BidirectionalTransfer) {
  Rig rig;
  std::vector<std::uint8_t> at_a, at_b;
  rig.a->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    at_a.insert(at_a.end(), d.begin(), d.end());
  };
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    at_b.insert(at_b.end(), d.begin(), d.end());
  };
  rig.a->send(pattern(300), rig.cpu_a);
  rig.b->send(pattern(400), rig.cpu_b);
  rig.sim.run();
  EXPECT_EQ(at_b.size(), 300u);
  EXPECT_EQ(at_a.size(), 400u);
}

TEST(TcpTest, IncomingFlowIsRemoteToLocal) {
  Rig rig;
  const auto flow = rig.a->incoming_flow();
  EXPECT_EQ(flow.src_ip, rig.ns_b.ip());
  EXPECT_EQ(flow.dst_ip, rig.ns_a.ip());
  EXPECT_EQ(flow.src_port, 2000);
  EXPECT_EQ(flow.dst_port, 1000);
  EXPECT_EQ(flow.protocol, net::IpProto::kTcp);
}

TEST(TcpTest, GroTrainAcksOncePerDeliver) {
  Rig rig;
  rig.b->on_data = [](std::span<const std::uint8_t>, sim::Time) {};
  const auto seg = pattern(100);
  // Simulate a 3-segment GRO train: only the final frame requests an ACK.
  net::TcpHeader h;
  h.src_port = 1000;
  h.dst_port = 2000;
  h.flags = net::TcpFlags::kAck;
  h.seq = 1;
  rig.b->handle_segment(h, seg, 0, /*ack_now=*/false);
  h.seq = 101;
  rig.b->handle_segment(h, seg, 0, /*ack_now=*/false);
  h.seq = 201;
  rig.b->handle_segment(h, seg, 0, /*ack_now=*/true);
  rig.sim.run();
  EXPECT_EQ(rig.b->acks_sent(), 1u);
  EXPECT_EQ(rig.b->rcv_nxt(), 301u);
}

TEST(TcpTest, SendChargesCpu) {
  Rig rig;
  rig.b->on_data = [](std::span<const std::uint8_t>, sim::Time) {};
  rig.a->send(pattern(64 * 1024), rig.cpu_a);
  rig.sim.run();
  // syscall + copy(64K) + tx + TSO extras: a couple of microseconds at
  // least, well below a per-segment-cost regime.
  const auto busy = rig.cpu_a.accounting().busy_time();
  EXPECT_GT(busy, sim::microseconds(3));
  EXPECT_LT(busy, sim::microseconds(60));
}

}  // namespace
}  // namespace prism::kernel
