// Point-to-point physical link between two NICs.
//
// Models the paper's testbed topology: two hosts directly connected with a
// 100 GbE cable. Frames serialize onto the wire at link bandwidth
// (per-direction FIFO) and arrive after the propagation delay.
//
// A wire always joins two simulation lanes (each host owns its own lane):
// the endpoints live on different Simulators, and delivery crosses through
// the LaneSet's inboxes. The propagation delay doubles as the
// conservative lookahead that lets each lane run ahead of the other — the
// wire registers it with the LaneSet at construction, which also puts the
// two lanes in one connected component.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "sim/lane.h"

namespace prism::nic {

class Nic;

/// Full-duplex point-to-point link.
class Wire {
 public:
  /// Endpoint a lives on `lanes.lane(lane_a)`, endpoint b on
  /// `lanes.lane(lane_b)`; the two lanes must differ. Registers the
  /// propagation delay as lookahead. `bandwidth_gbps` is per direction;
  /// the paper's testbed used 100 GbE.
  Wire(sim::LaneSet& lanes, int lane_a, int lane_b,
       double bandwidth_gbps = 100.0,
       sim::Duration propagation = sim::nanoseconds(500));

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// Attaches the two endpoints (a on the first/lane_a side, b on the
  /// second/lane_b side). Must be called exactly once before any transmit.
  void attach(Nic& a, Nic& b);

  /// Puts `frame` on the wire from endpoint `src`. The frame is delivered
  /// to the opposite endpoint after queueing (if the direction is busy),
  /// serialization, and propagation. Thread-safe across lanes: each
  /// direction's state is only touched by its source lane.
  void transmit_from(const Nic& src, net::PacketBuf frame);

  /// Serialization time of a frame of `bytes` at link bandwidth.
  sim::Duration serialization_time(std::size_t bytes) const noexcept;

  sim::Duration propagation() const noexcept { return propagation_; }

  std::uint64_t frames_delivered() const noexcept {
    return delivered_ab_ + delivered_ba_;
  }

 private:
  sim::LaneSet& lanes_;
  int lane_a_;
  int lane_b_;
  double bits_per_ns_;
  sim::Duration propagation_;
  Nic* a_ = nullptr;
  Nic* b_ = nullptr;
  // Per-direction state: written only by the source endpoint's lane.
  sim::Time busy_until_ab_ = 0;
  sim::Time busy_until_ba_ = 0;
  std::uint64_t delivered_ab_ = 0;
  std::uint64_t delivered_ba_ = 0;
};

}  // namespace prism::nic
