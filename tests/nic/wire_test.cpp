#include "nic/wire.h"

#include <gtest/gtest.h>

#include "nic/nic.h"
#include "sim/simulator.h"

namespace prism::nic {
namespace {

net::PacketBuf make_frame(std::size_t size) {
  std::vector<std::uint8_t> payload(size, 0xaa);
  return net::PacketBuf::with_headroom(0, payload);
}

/// Two NICs joined by a wire, all on one Simulator.
struct Rig {
  sim::Simulator sim;
  Nic a{sim, 1, 64};
  Nic b{sim, 1, 64};
  Wire wire{sim, 100.0, sim::nanoseconds(500)};
  Rig() {
    wire.attach(a, b);
    a.attach_wire(wire);
    b.attach_wire(wire);
  }
};

TEST(WireTest, DeliversToOppositeEndpoint) {
  Rig r;
  r.a.transmit(make_frame(100));
  r.sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(r.b.rx_frames(), 1u);
  EXPECT_EQ(r.a.rx_frames(), 0u);
  EXPECT_EQ(r.wire.frames_delivered(), 1u);
}

TEST(WireTest, DeliveryDelayedBySerializationAndPropagation) {
  Rig r;
  r.a.transmit(make_frame(1480));
  // (1480 + 20 preamble/IFG) * 8 bits / 100 Gbps = 120 ns, plus 500 ns
  // propagation.
  r.sim.run_until(120 + 500 - 1);
  EXPECT_EQ(r.b.rx_frames(), 0u);
  r.sim.run_until(120 + 500);
  EXPECT_EQ(r.b.rx_frames(), 1u);
}

// Events at one nanosecond run in the order they were queued, and a
// frame's arrival is queued when the frame is transmitted: an event
// queued for the arrival instant before the transmit runs before the
// arrival, one queued after it runs after.
TEST(WireTest, ArrivalTiesBreakByTransmitOrder) {
  Rig r;
  const sim::Time arrival = 120 + 500;  // a 1480-byte frame, as above
  std::uint64_t x_saw = 99;
  std::uint64_t y_saw = 99;
  r.sim.schedule_at(arrival, [&] { x_saw = r.b.rx_frames(); });
  r.a.transmit(make_frame(1480));
  r.sim.schedule_at(arrival, [&] { y_saw = r.b.rx_frames(); });
  r.sim.run_until(arrival);
  EXPECT_EQ(x_saw, 0u);
  EXPECT_EQ(y_saw, 1u);
  EXPECT_EQ(r.sim.events_executed(), 3u);
}

TEST(WireTest, BackToBackFramesSerializeSequentially) {
  Rig r;
  for (int i = 0; i < 10; ++i) r.a.transmit(make_frame(1480));
  // Last frame leaves after 10 serialization slots.
  r.sim.run_until(10 * 120 + 500 - 1);
  EXPECT_EQ(r.b.rx_frames(), 9u);
  r.sim.run_until(10 * 120 + 500);
  EXPECT_EQ(r.b.rx_frames(), 10u);
}

TEST(WireTest, DirectionsAreIndependent) {
  Rig r;
  r.a.transmit(make_frame(1480));
  r.b.transmit(make_frame(1480));
  // Both arrive at the single-frame latency: no cross-direction queueing.
  r.sim.run_until(120 + 500 - 1);
  EXPECT_EQ(r.a.rx_frames(), 0u);
  EXPECT_EQ(r.b.rx_frames(), 0u);
  r.sim.run_until(120 + 500);
  EXPECT_EQ(r.a.rx_frames(), 1u);
  EXPECT_EQ(r.b.rx_frames(), 1u);
}

TEST(WireTest, TransmitWithoutAttachThrows) {
  sim::Simulator sim;
  Nic n(sim, 1, 64);
  EXPECT_THROW(n.transmit(make_frame(64)), std::logic_error);
}

TEST(WireTest, DoubleAttachThrows) {
  Rig r;
  Nic c(r.sim, 1, 64);
  EXPECT_THROW(r.wire.attach(r.a, c), std::logic_error);
}

TEST(WireTest, ForeignNicRejected) {
  Rig r;
  Nic c(r.sim, 1, 64);
  c.attach_wire(r.wire);
  EXPECT_THROW(c.transmit(make_frame(64)), std::logic_error);
}

TEST(WireTest, BadBandwidthRejected) {
  sim::Simulator sim;
  EXPECT_THROW(Wire(sim, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace prism::nic
