// Packet-journey probe: the one hook each datapath site calls.
//
// The paper attributes NAPI behaviour with eBPF programs attached to fixed
// kernel hook sites (Fig. 6): one hook per site, any number of consumers.
// PacketProbe is that shape for the simulated datapath. Each point of a
// packet's journey — ring arrival, IRQ-to-poll, stage enqueue, stage
// dequeue, flow-cache fast path, drop, delivery, socket wait — is one
// method, and every site in the NIC, the driver poll, the stage queues,
// the bridge, the backlog, the socket layer and the host's local paths
// makes exactly one call. The probe fans the observation out to the
// host's consumers: drop ledger, latency ledger, flow table, flight
// recorder and anomaly bank.
//
// Consumers are a fixed set of nullable pointers — no sink registry, no
// virtual dispatch. Components point at detached() (every consumer null)
// until a host attaches its own probe, so standalone component tests
// attach nothing.
//
// The rules each site used to repeat live here once:
//   * the observed class a journey is attributed to, with vanilla
//     classifying on the side at ring arrival;
//   * the `traced && parsed` guard on flight-recorder events;
//   * the priority class of a frame known only by its bytes;
//   * the fan-out of every drop to the latency ledger and anomaly bank;
//   * the forwarding of recorder stage waits to the anomaly bank.
//
// Observation only: no method charges simulated cost or feeds a
// scheduling decision. Each consumer is switched off at run time (left
// null, or by its own set_enabled / set_armed); drop accounting stays
// live whatever is switched off, so conservation always holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "fault/fault.h"
#include "kernel/skb.h"
#include "net/packet.h"
#include "sim/time.h"
#include "telemetry/flight_recorder.h"

namespace prism::sim {
class Simulator;
}

namespace prism::prism {
class PriorityDb;
}

namespace prism::telemetry {
class LatencyLedger;
class FlowTable;
class AnomalyBank;
}

namespace prism::kernel {

/// Per-host fan-out from packet-journey points to the attached consumers.
/// Stage numbers follow the flight recorder: 1 = NIC driver poll, 2 =
/// bridge gro_cell, 3 = backlog/veth, 4 = socket delivery.
class PacketProbe {
 public:
  // ------------------------------------------------------------- consumers
  /// Every pointer may be null (not attached).
  fault::DropLedger* drops = nullptr;
  telemetry::LatencyLedger* latency = nullptr;
  telemetry::FlowTable* flows = nullptr;
  telemetry::FlightRecorder* recorder = nullptr;
  telemetry::AnomalyBank* anomalies = nullptr;
  /// Classifies byte-only drops and vanilla's side channel.
  const prism::PriorityDb* priority_db = nullptr;
  /// Host mode is a Prism mode: the datapath classifies, so drops known
  /// only by their bytes are classified too. Vanilla (false) leaves every
  /// packet in class 0.
  bool prism_mode = false;
  /// Dates the anomaly bank's drop observations; required with
  /// `anomalies`.
  const sim::Simulator* clock = nullptr;

  /// The probe a component reports to until a host attaches its own:
  /// nothing attached, every method a no-op.
  static const PacketProbe& detached() noexcept;

  // --------------------------------------------------------- journey points
  /// Stage-1 dequeue of a freshly allocated skb (the host's local path
  /// calls it at bridge entry with zero ring wait). Records the observed
  /// class and makes the flight recorder's sampling decision for the
  /// whole journey. `inner` is the decapsulated frame of a VXLAN packet,
  /// nullptr otherwise; the journey is keyed by the flow later stages
  /// see (the inner one for overlay packets).
  void ring_arrival(Skb& skb, const net::ParsedFrame& outer,
                    const net::ParsedFrame* inner, sim::Time arrived,
                    sim::Time dequeued) const {
    if (recorder != nullptr && recorder->armed()) {
      sample(skb, outer, inner, arrived, dequeued);
    }
  }

  /// One hardirq -> first-poll delay.
  void irq_to_poll(sim::Duration d) const;

  /// Traced skb pushed onto a stage queue now `depth` deep, behind class
  /// `head_class` (-1 = queue was empty).
  void stage_enqueue(Skb& skb, int stage, int depth, int head_class) const;
  /// Traced skb popped off a stage queue at `at`.
  void stage_dequeue(const Skb& skb, int stage, sim::Time at) const;
  /// Traced skb left stage 1 through the overlay flow cache.
  void fast_path(const Skb& skb, sim::Time at) const;

  /// Drop of a packet at class `level`, outside any traced journey. Every
  /// other drop form reports through this one.
  void drop(fault::DropReason reason, int level) const;
  /// Drop of a frame known only by its bytes (classified as stage 1
  /// would have).
  void drop(fault::DropReason reason,
            std::span<const std::uint8_t> frame) const;
  /// Drop of `skb` at `stage`: `frames` ledger entries at class `level`,
  /// and the end of a traced journey.
  void drop(fault::DropReason reason, int level, const Skb& skb, int stage,
            sim::Time at, int frames = 1) const;
  /// One wire frame of `skb` refused at socket delivery: a stage-4 drop
  /// that also enters the flow table's drop history.
  void drop_frame(fault::DropReason reason, const Skb& skb,
                  const net::ParsedFrame& frame, std::size_t bytes,
                  sim::Time at) const;

  /// Journey complete: `skb` reached socket delivery at `at`.
  void deliver(const Skb& skb, sim::Time at) const;
  /// One wire frame of a delivered `skb` entered a socket.
  void deliver_frame(const Skb& skb, const net::ParsedFrame& frame,
                     std::size_t bytes, sim::Time at) const;

  /// One datagram's socket-buffer residence (enqueue -> recv).
  void socket_wait(sim::Duration d, int level) const;

  // ------------------------------------------------------------------ rules
  /// Priority class of a frame known only by its bytes: what stage 1
  /// would classify it as (0 in vanilla, or with no database).
  int frame_class(std::span<const std::uint8_t> frame) const;

 private:
  /// The class a journey is attributed to: the datapath priority, or in
  /// vanilla (which never classifies) the side-channel class ring
  /// arrival recorded.
  static int observed(const Skb& skb) noexcept {
    return skb.observed_class > skb.priority
               ? static_cast<int>(skb.observed_class)
               : skb.priority;
  }
  void sample(Skb& skb, const net::ParsedFrame& outer,
              const net::ParsedFrame* inner, sim::Time arrived,
              sim::Time dequeued) const;
};

}  // namespace prism::kernel
