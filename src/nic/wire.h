// Point-to-point physical link between two NICs.
//
// Models the paper's testbed topology: two hosts directly connected with a
// 100 GbE cable. Frames serialize onto the wire at link bandwidth
// (per-direction FIFO) and arrive after the propagation delay.
//
// Both endpoints live on one Simulator, the pair's event queue: a frame's
// arrival is queued on it when the frame is transmitted, so an arrival
// runs after every event already queued for its instant and before every
// event queued later.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "sim/simulator.h"

namespace prism::nic {

class Nic;

/// Full-duplex point-to-point link.
class Wire {
 public:
  /// Precondition: both NICs attached later run on `sim`, which
  /// schedules every arrival. `bandwidth_gbps` is per direction; the
  /// paper's testbed used 100 GbE.
  explicit Wire(sim::Simulator& sim, double bandwidth_gbps = 100.0,
                sim::Duration propagation = sim::nanoseconds(500));

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// Attaches the two endpoints. Must be called exactly once before any
  /// transmit.
  void attach(Nic& a, Nic& b);

  /// Puts `frame` on the wire from endpoint `src`. The frame is delivered
  /// to the opposite endpoint after queueing (if the direction is busy),
  /// serialization, and propagation.
  void transmit_from(const Nic& src, net::PacketBuf frame);

  /// Serialization time of a frame of `bytes` at link bandwidth.
  sim::Duration serialization_time(std::size_t bytes) const noexcept;

  sim::Duration propagation() const noexcept { return propagation_; }

  std::uint64_t frames_delivered() const noexcept {
    return delivered_ab_ + delivered_ba_;
  }

 private:
  sim::Simulator& sim_;
  double bits_per_ns_;
  sim::Duration propagation_;
  Nic* a_ = nullptr;
  Nic* b_ = nullptr;
  // Per-direction state.
  sim::Time busy_until_ab_ = 0;
  sim::Time busy_until_ba_ = 0;
  std::uint64_t delivered_ab_ = 0;
  std::uint64_t delivered_ba_ = 0;
};

}  // namespace prism::nic
