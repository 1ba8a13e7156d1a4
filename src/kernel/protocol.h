// Final protocol step: L3/L4 processing and socket delivery.
//
// Both the single-stage host path (inside the NIC driver poll) and the
// last overlay stage (the backlog/veth poll) end here: the frame's
// transport header selects a UDP socket or TCP endpoint in the destination
// namespace, and a UDP frame's block crosses into the socket buffer.
#pragma once

#include <cstdint>

#include "kernel/cost_model.h"
#include "kernel/probe.h"
#include "kernel/skb.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"

namespace prism::overlay {
class Netns;
}

namespace prism::kernel {

class OverloadGovernor;

/// Routes delivered skbs (including GRO chains) into sockets.
class SocketDeliverer {
 public:
  SocketDeliverer(sim::Simulator& sim, const CostModel& cost)
      : sim_(sim), cost_(cost) {}

  /// Attaches the host's packet probe (kernel/probe.h). Delivery is the
  /// one point where a packet's journey is complete: the probe records
  /// the per-stage breakdown, the per-flow accounting and the journey's
  /// end, and every refused frame as a stage-4 drop.
  void set_probe(const PacketProbe* probe) noexcept { probe_ = probe; }

  /// Delivers every frame carried by `skb` (head + GRO chain) to sockets
  /// in `ns` at instant `at`. Returns extra in-kernel cost incurred
  /// (e.g. TCP ACK transmission). Frames without a matching socket are
  /// dropped and counted.
  sim::Duration deliver(Skb& skb, sim::Time at, overlay::Netns& ns);

  std::uint64_t no_socket_drops() const noexcept { return drops_.value(); }
  /// Frames rejected by receive-side L4 checksum verification.
  std::uint64_t csum_drops() const noexcept { return csum_drops_.value(); }
  /// Frames addressed to a draining or torn-down namespace.
  std::uint64_t dead_ns_drops() const noexcept {
    return dead_ns_drops_.value();
  }
  std::uint64_t delivered() const noexcept { return delivered_.value(); }

  /// Attaches the host's fault plan (buffer alloc-failure injection).
  /// nullptr detaches.
  void set_faults(fault::FaultLayer* faults) noexcept { faults_ = faults; }

  /// Attaches the host's overload governor: successful socket deliveries
  /// feed its receiver-livelock watchdog (drops deliberately do not —
  /// a flood that never reaches a socket is exactly a livelock). nullptr
  /// detaches.
  void set_governor(OverloadGovernor* governor) noexcept {
    governor_ = governor;
  }

  /// Registers delivery counters under `prefix` (e.g. "sockets.").
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix) {
    reg.add(prefix + "delivered", delivered_);
    reg.add(prefix + "no_socket_drops", drops_);
    reg.add(prefix + "csum_drops", csum_drops_);
    reg.add(prefix + "dead_ns_drops", dead_ns_drops_);
  }

 private:
  /// `frame` is the skb's head buffer or one of its GRO-chain buffers; a
  /// UDP frame's block moves into the queued datagram, and a TCP frame's
  /// into the endpoint as the segment's payload. `pre_parsed`
  /// (optional) is the caller's existing parse of `frame` — the skb's
  /// cached head-frame parse — reused instead of re-parsing.
  sim::Duration deliver_frame(const Skb& skb, net::PacketBuf& frame,
                              const net::ParsedFrame* pre_parsed,
                              sim::Time at, overlay::Netns& ns,
                              bool final_frame);

  sim::Simulator& sim_;
  const CostModel& cost_;
  const PacketProbe* probe_ = &PacketProbe::detached();
  fault::FaultLayer* faults_ = nullptr;
  OverloadGovernor* governor_ = nullptr;
  telemetry::Counter drops_;
  telemetry::Counter csum_drops_;
  telemetry::Counter dead_ns_drops_;
  telemetry::Counter delivered_;
};

}  // namespace prism::kernel
