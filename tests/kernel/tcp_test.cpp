#include "kernel/tcp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "kernel/cpu.h"
#include "net/packet.h"
#include "overlay/netns.h"
#include "sim/simulator.h"

namespace prism::kernel {
namespace {

// Loopback rig: two endpoints whose egress delivers directly into the
// peer (optionally dropping selected segments), bypassing the full stack
// so the TCP state machine is tested in isolation. Each segment arrives
// in its own frame's block, trimmed to the payload, as the socket layer
// hands it over.
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
  /// Data segments starting at one of these sequence numbers are dropped
  /// once each.
  std::set<std::uint32_t> drop_once;
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
    if (!parsed->l4_payload.empty() && drop_once.erase(parsed->tcp->seq)) {
      return;
    }
    ++forwarded;
    const auto header = *parsed->tcp;
    frame.pop_front(parsed->l4_payload_offset);
    frame.truncate(parsed->l4_payload.size());
    // Small propagation so handle runs as its own event.
    sim.schedule(1000, [this, &dst, header,
                        payload = std::move(frame)]() mutable {
      dst.handle_segment(header, std::move(payload), sim.now());
    });
  }
};

net::PacketBuf block_of(std::span<const std::uint8_t> bytes) {
  return net::PacketBuf::with_headroom(0, bytes);
}

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
  rig.b->handle_segment(dup, block_of(msg), rig.sim.now());
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
  rig.b->handle_segment(h, block_of(seg), 0, /*ack_now=*/false);
  h.seq = 101;
  rig.b->handle_segment(h, block_of(seg), 0, /*ack_now=*/false);
  h.seq = 201;
  rig.b->handle_segment(h, block_of(seg), 0, /*ack_now=*/true);
  rig.sim.run();
  EXPECT_EQ(rig.b->acks_sent(), 1u);
  EXPECT_EQ(rig.b->rcv_nxt(), 301u);
}

TEST(TcpTest, RetransmissionAcrossAMessageBoundaryJoinsTheStoredTail) {
  // Messages of 1,500 and 1,000 B at mss 1,000 leave as [1, 1001),
  // [1001, 1501) and [1501, 2501). With [1001, 1501) lost, [1501, 2501)
  // waits out of order; the go-back-N retransmission is cut at the mss
  // from 1001, so its [1001, 2001) overtakes the stored segment's start.
  Rig rig(/*mss=*/1000);
  rig.drop_once = {1001};
  std::vector<std::uint8_t> got;
  std::vector<std::size_t> chunks;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    got.insert(got.end(), d.begin(), d.end());
    chunks.push_back(d.size());
  };
  const auto first = pattern(1500);
  std::vector<std::uint8_t> second(1000);
  for (std::size_t i = 0; i < second.size(); ++i) {
    second[i] = static_cast<std::uint8_t>(7 * i + 3);
  }
  rig.a->send(first, rig.cpu_a);
  rig.a->send(second, rig.cpu_a);
  rig.sim.run_until(sim::milliseconds(2));
  EXPECT_EQ(rig.b->rcv_nxt(), 1001u);
  EXPECT_EQ(rig.b->ooo_segments(), 1u);

  rig.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(rig.a->retransmissions(), 1u);
  // [1001, 2001) delivers through 2501: its own 1,000 bytes and the
  // stored segment's unseen 500. The retransmitted [2001, 2501) is a
  // duplicate.
  EXPECT_EQ(chunks, (std::vector<std::size_t>{1000, 1500}));
  EXPECT_EQ(rig.b->rcv_nxt(), 2501u);
  EXPECT_EQ(rig.b->ooo_segments(), 0u);
  std::vector<std::uint8_t> sent = first;
  sent.insert(sent.end(), second.begin(), second.end());
  EXPECT_EQ(got, sent);
  EXPECT_EQ(rig.a->unacked_bytes(), 0u);
}

TEST(TcpTest, OverlappingSegmentDeliversOnlyItsUnseenBytes) {
  Rig rig;
  std::vector<std::uint8_t> got;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    got.insert(got.end(), d.begin(), d.end());
  };
  const auto bytes = pattern(150);
  net::TcpHeader h;
  h.src_port = 1000;
  h.dst_port = 2000;
  h.flags = net::TcpFlags::kAck;
  h.seq = 1;
  rig.b->handle_segment(h, block_of(std::span(bytes).first(100)), 0);
  h.seq = 51;
  rig.b->handle_segment(h, block_of(std::span(bytes).subspan(50)), 0);
  rig.sim.run();
  EXPECT_EQ(got, bytes);
  EXPECT_EQ(rig.b->rcv_nxt(), 151u);
  EXPECT_EQ(rig.b->bytes_delivered(), 150u);
}

TEST(TcpTest, InOrderSegmentIsDeliveredInItsOwnBlock) {
  Rig rig;
  const auto bytes = pattern(300);
  net::PacketBuf payload = block_of(bytes);
  const std::uint8_t* block_bytes = payload.bytes().data();
  const std::uint8_t* delivered = nullptr;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    delivered = d.data();
    EXPECT_TRUE(std::equal(d.begin(), d.end(), bytes.begin(), bytes.end()));
  };
  net::TcpHeader h;
  h.src_port = 1000;
  h.dst_port = 2000;
  h.flags = net::TcpFlags::kAck;
  h.seq = 1;
  rig.b->handle_segment(h, std::move(payload), 0);
  rig.sim.run();
  EXPECT_EQ(delivered, block_bytes);  // no copy between them
}

TEST(TcpTest, SendCopiesAtTheCallAndCommitsAtItsChunkEnd) {
  Rig rig(/*mss=*/100);
  std::vector<std::uint8_t> got;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    got.insert(got.end(), d.begin(), d.end());
  };
  const auto msg = pattern(500);
  std::vector<std::uint8_t> buf = msg;
  rig.a->send(buf, rig.cpu_a);
  std::fill(buf.begin(), buf.end(), 0);  // the caller reuses its buffer
  rig.a->send(buf, rig.cpu_a);
  // Staged, not committed: nothing is sent or unacked yet.
  EXPECT_EQ(rig.a->snd_nxt(), 1u);
  EXPECT_EQ(rig.a->unacked_bytes(), 0u);
  rig.sim.run();
  EXPECT_EQ(rig.a->snd_nxt(), 1001u);
  std::vector<std::uint8_t> sent = msg;
  sent.resize(1000, 0);
  EXPECT_EQ(got, sent);
}

TEST(TcpTest, BurstEgressKeepsTheOrderOfEventsAtItsInstant) {
  // The instant the send's chunk ends, read from a twin rig.
  sim::Time commit = -1;
  {
    Rig twin(/*mss=*/100);
    twin.ns_a.egress = [&](net::PacketBuf f) {
      if (commit < 0) commit = twin.sim.now();
      twin.deliver(*twin.b, std::move(f));
    };
    twin.a->send(pattern(500), twin.cpu_a);
    twin.sim.run();
  }
  ASSERT_GT(commit, 0);

  Rig rig(/*mss=*/100);
  std::vector<std::string> order;
  rig.ns_a.egress = [&](net::PacketBuf f) {
    const auto parsed = net::parse_frame(f.bytes());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(rig.sim.now(), commit);
    order.push_back("seg" + std::to_string(parsed->tcp->seq));
    rig.deliver(*rig.b, std::move(f));
  };
  // Queued before the send: runs at the commit instant before the burst.
  rig.sim.schedule_at(commit, [&] { order.push_back("before"); });
  rig.a->send(pattern(500), rig.cpu_a);
  // The next chunk on the core starts at the commit instant and ends at
  // it; its completion event is queued after the burst's.
  rig.cpu_a.run_task(0, [&] {
    EXPECT_EQ(rig.sim.now(), commit);
    order.push_back("after");
  });
  rig.sim.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"before", "seg1", "seg101", "seg201",
                                      "seg301", "seg401", "after"}));
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
