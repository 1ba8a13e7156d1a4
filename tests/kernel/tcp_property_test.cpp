// Property tests for the TCP endpoint: stream integrity under randomized
// loss patterns and message sizes, swept with parameterized gtest.
#include <gtest/gtest.h>

#include "kernel/cpu.h"
#include "kernel/tcp.h"
#include "net/packet.h"
#include "overlay/netns.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace prism::kernel {
namespace {

// Lossy loopback: each data segment is dropped with probability p.
struct LossyRig {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu{sim, cost, 0};
  overlay::Netns ns_a{"a", net::Ipv4Addr::of(10, 0, 0, 1),
                      net::MacAddr::make(1), false};
  overlay::Netns ns_b{"b", net::Ipv4Addr::of(10, 0, 0, 2),
                      net::MacAddr::make(2), false};
  std::unique_ptr<TcpEndpoint> a;
  std::unique_ptr<TcpEndpoint> b;
  sim::Rng rng;
  double loss;
  std::uint64_t dropped = 0;

  LossyRig(std::uint64_t seed, double loss_probability)
      : rng(seed), loss(loss_probability) {
    ns_a.add_neighbor(ns_b.ip(), ns_b.mac());
    ns_b.add_neighbor(ns_a.ip(), ns_a.mac());
    TcpEndpoint::Config ca;
    ca.ns = &ns_a;
    ca.local_ip = ns_a.ip();
    ca.remote_ip = ns_b.ip();
    ca.local_port = 1;
    ca.remote_port = 2;
    ca.mss = 1000;
    ca.rto = sim::milliseconds(3);
    TcpEndpoint::Config cb = ca;
    cb.ns = &ns_b;
    cb.local_ip = ns_b.ip();
    cb.remote_ip = ns_a.ip();
    cb.local_port = 2;
    cb.remote_port = 1;
    a = std::make_unique<TcpEndpoint>(sim, cost, ca);
    b = std::make_unique<TcpEndpoint>(sim, cost, cb);
    ns_a.egress = [this](net::PacketBuf f) { deliver(*b, std::move(f)); };
    ns_b.egress = [this](net::PacketBuf f) { deliver(*a, std::move(f)); };
  }

  void deliver(TcpEndpoint& dst, net::PacketBuf frame) {
    const auto parsed = net::parse_frame(frame.bytes());
    if (!parsed || !parsed->tcp) return;
    // Drop data segments randomly; never drop pure ACKs (losing every
    // ACK forever would only stall the clock, not the correctness).
    if (!parsed->l4_payload.empty() && rng.uniform() < loss) {
      ++dropped;
      return;
    }
    const auto header = *parsed->tcp;
    frame.pop_front(parsed->l4_payload_offset);
    frame.truncate(parsed->l4_payload.size());
    sim.schedule(500, [&dst, header, payload = std::move(frame),
                       this]() mutable {
      dst.handle_segment(header, std::move(payload), sim.now());
    });
  }
};

class TcpLossProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {
};

TEST_P(TcpLossProperty, StreamSurvivesRandomLoss) {
  const auto [seed, loss] = GetParam();
  LossyRig rig(seed, loss);
  sim::Rng data_rng(seed * 7919);

  std::vector<std::uint8_t> sent;
  std::vector<std::uint8_t> got;
  rig.b->on_data = [&](std::span<const std::uint8_t> d, sim::Time) {
    got.insert(got.end(), d.begin(), d.end());
  };

  // Several randomly sized messages, spaced out.
  sim::Time at = 0;
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> msg(
        static_cast<std::size_t>(data_rng.uniform_int(100, 8000)));
    for (auto& byte : msg) {
      byte = static_cast<std::uint8_t>(data_rng.next());
    }
    sent.insert(sent.end(), msg.begin(), msg.end());
    rig.sim.schedule_at(at, [&rig, msg = std::move(msg)] {
      rig.a->send(msg, rig.cpu);
    });
    at += sim::milliseconds(1);
  }

  rig.sim.run_until(sim::seconds(2));
  // Exact byte-for-byte stream reassembly despite the losses.
  EXPECT_EQ(got, sent);
  EXPECT_EQ(rig.a->unacked_bytes(), 0u);
  // Reassembly holds nothing once every byte is in: no stored segment
  // was stranded behind one that overtook its start.
  EXPECT_EQ(rig.b->ooo_segments(), 0u);
  // At light loss a short run may see zero drops by chance; only heavy
  // loss guarantees the recovery path actually exercised.
  if (loss >= 0.2) {
    EXPECT_GT(rig.dropped, 0u);
    EXPECT_GT(rig.a->retransmissions(), 0u);
  }
  if (rig.dropped > 0) {
    EXPECT_GT(rig.a->retransmissions(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLoss, TcpLossProperty,
    ::testing::Combine(::testing::Values(1u, 7u, 99u),
                       ::testing::Values(0.0, 0.05, 0.2, 0.4)));

}  // namespace
}  // namespace prism::kernel
