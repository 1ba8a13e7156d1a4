#include "nic/wire.h"

#include <gtest/gtest.h>

#include "nic/nic.h"
#include "sim/lane.h"
#include "sim/simulator.h"

namespace prism::nic {
namespace {

net::PacketBuf make_frame(std::size_t size) {
  std::vector<std::uint8_t> payload(size, 0xaa);
  return net::PacketBuf::with_headroom(0, payload);
}

/// Endpoint a on lane 0, endpoint b on lane 1.
struct Rig {
  sim::LaneSet lanes{2};
  Nic a{lanes.lane(0), 1, 64};
  Nic b{lanes.lane(1), 1, 64};
  Wire wire{lanes, 0, 1, 100.0, sim::nanoseconds(500)};
  Rig() {
    wire.attach(a, b);
    a.attach_wire(wire);
    b.attach_wire(wire);
  }
};

TEST(WireTest, DeliversToOppositeEndpoint) {
  Rig r;
  r.a.transmit(make_frame(100));
  r.lanes.run_until(sim::milliseconds(1));
  EXPECT_EQ(r.b.rx_frames(), 1u);
  EXPECT_EQ(r.a.rx_frames(), 0u);
  EXPECT_EQ(r.wire.frames_delivered(), 1u);
  EXPECT_EQ(r.lanes.messages_posted(), 1u);
}

TEST(WireTest, DeliveryDelayedBySerializationAndPropagation) {
  Rig r;
  r.a.transmit(make_frame(1480));
  // (1480 + 20 preamble/IFG) * 8 bits / 100 Gbps = 120 ns, plus 500 ns
  // propagation.
  r.lanes.run_until(120 + 500 - 1);
  EXPECT_EQ(r.b.rx_frames(), 0u);
  r.lanes.run_until(120 + 500);
  EXPECT_EQ(r.b.rx_frames(), 1u);
}

TEST(WireTest, BackToBackFramesSerializeSequentially) {
  Rig r;
  for (int i = 0; i < 10; ++i) r.a.transmit(make_frame(1480));
  // Last frame leaves after 10 serialization slots.
  r.lanes.run_until(10 * 120 + 500 - 1);
  EXPECT_EQ(r.b.rx_frames(), 9u);
  r.lanes.run_until(10 * 120 + 500);
  EXPECT_EQ(r.b.rx_frames(), 10u);
}

TEST(WireTest, DirectionsAreIndependent) {
  Rig r;
  r.a.transmit(make_frame(1480));
  r.b.transmit(make_frame(1480));
  // Both arrive at the single-frame latency: no cross-direction queueing.
  r.lanes.run_until(120 + 500 - 1);
  EXPECT_EQ(r.a.rx_frames(), 0u);
  EXPECT_EQ(r.b.rx_frames(), 0u);
  r.lanes.run_until(120 + 500);
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
  Nic c(r.lanes.lane(0), 1, 64);
  EXPECT_THROW(r.wire.attach(r.a, c), std::logic_error);
}

TEST(WireTest, ForeignNicRejected) {
  Rig r;
  Nic c(r.lanes.lane(0), 1, 64);
  c.attach_wire(r.wire);
  EXPECT_THROW(c.transmit(make_frame(64)), std::logic_error);
}

TEST(WireTest, BadBandwidthRejected) {
  sim::LaneSet lanes(2);
  EXPECT_THROW(Wire(lanes, 0, 1, 0.0), std::invalid_argument);
}

TEST(WireTest, SameLaneRejected) {
  // A wire always crosses lanes: both endpoints on one lane would have no
  // inbox to deliver through.
  sim::LaneSet lanes(2);
  EXPECT_THROW(Wire(lanes, 1, 1), std::invalid_argument);
  EXPECT_EQ(lanes.lookahead(), sim::LaneSet::kMaxTime);  // nothing linked
}

}  // namespace
}  // namespace prism::nic
