// Stage 1: the physical NIC driver's NAPI poll.
//
// Models the mlx5e-style driver poll the paper instruments: frames are
// dequeued from the hardware ring, an skb is allocated for each — this is
// where PRISM determines the packet's priority, once, against the global
// high-priority database (paper §IV-A) — the outer headers are processed,
// and the packet is routed:
//
//   * VXLAN-encapsulated frames are decapsulated and handed to the
//     bridge's gro_cell (stage transition into stage 2);
//   * native frames destined to the host take the single-stage path and
//     are delivered to a root-namespace socket right here.
//
// The poll also performs GRO: consecutive in-order TCP frames of one flow
// are merged into a super-skb so later stages and the socket pay per-skb
// costs once per merge (essential for the paper's Fig. 13 workload, where
// 64 KB TSO sends arrive as ~45-segment trains).
//
// Faithful limitation (paper §IV-D): the hardware ring itself is a single
// FIFO; priority has no effect until the skb exists, which is why PRISM
// cannot help single-stage host traffic (Fig. 10).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "kernel/cost_model.h"
#include "kernel/napi.h"
#include "kernel/protocol.h"
#include "kernel/stage_transition.h"
#include "net/flow.h"
#include "nic/nic.h"
#include "prism/priority_db.h"

namespace prism::overlay {
class FlowCache;
class Netns;
}

namespace prism::kernel {

class NetRxEngine;

/// Wiring a NicNapi needs from its host.
struct NicNapiContext {
  NetRxEngine* engine = nullptr;
  StageTransition* transition = nullptr;
  const CostModel* cost = nullptr;
  /// PRISM's priority database; consulted only in PRISM modes.
  const prism::PriorityDb* priority_db = nullptr;
  SocketDeliverer* deliverer = nullptr;
  overlay::Netns* root_ns = nullptr;
  /// The host's packet probe: IRQ->poll delays, drops, and the ring
  /// arrival where a journey's flight-recorder sampling decision is made.
  const PacketProbe* probe = &PacketProbe::detached();
  /// Optional: the host's fault plan (decap corruption, skb
  /// alloc-failure injection).
  fault::FaultLayer* faults = nullptr;
  /// Optional: per-host overlay flow cache (overlay/flow_cache.h). When
  /// enabled, overlay UDP packets whose transform is cached skip straight
  /// from this poll to socket delivery.
  overlay::FlowCache* flow_cache = nullptr;
  /// Resolves a VNI to this CPU's bridge gro_cell, nullptr if unknown.
  std::function<QueueNapi*(std::uint32_t vni)> vxlan_lookup;
};

/// NAPI over one hardware RX queue.
class NicNapi final : public NapiStruct {
 public:
  NicNapi(std::string name, nic::RxQueue& ring, NicNapiContext ctx);

  PollOutcome poll(int batch, sim::Time start) override;

  bool has_pending() const override { return !ring_.empty(); }
  /// The hardware ring cannot differentiate priority (paper §IV-D).
  bool has_high_pending() const override { return false; }
  /// napi_complete: re-enable the queue's interrupt.
  void on_complete() override { ring_.enable_irq(); }

  std::uint64_t dropped_unroutable() const noexcept {
    return dropped_.value();
  }
  /// Frames that failed wire-format validation (parse error, bad IPv4
  /// checksum, bad lengths) — distinct from unroutable, which parsed fine.
  std::uint64_t dropped_malformed() const noexcept {
    return dropped_malformed_.value();
  }
  std::uint64_t gro_merged() const noexcept { return gro_merged_.value(); }

  /// Called by the host's IRQ handler at the interrupt instant. The next
  /// poll records start - irq_at as the IRQ->poll latency; subsequent
  /// re-polls of the same schedule don't (the softirq is already
  /// running).
  void note_irq(sim::Time at) noexcept {
    if (irq_at_ < 0) irq_at_ = at;
  }

  /// Registers driver-poll counters under `prefix` (e.g. "nic.q0.").
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix) {
    reg.add(prefix + "unroutable_drops", dropped_);
    reg.add(prefix + "malformed_drops", dropped_malformed_);
    reg.add(prefix + "gro_merged", gro_merged_);
  }

 private:
  /// Where a classified frame goes next.
  struct Route {
    QueueNapi* bridge = nullptr;  ///< overlay: stage-2 gro_cell
    bool host_path = false;       ///< native: deliver in root namespace
  };

  /// In-flight GRO aggregation state within one poll.
  struct GroSlot {
    SkbPtr skb;
    Route route;
    net::FiveTuple key;  ///< inner (overlay) or outer (host) TCP flow
    int count = 0;
  };

  sim::Duration flush(GroSlot& slot, sim::Time at, double mult);

  nic::RxQueue& ring_;
  NicNapiContext ctx_;
  sim::Time irq_at_ = -1;  ///< pending IRQ instant, -1 = none
  telemetry::Counter dropped_;
  telemetry::Counter dropped_malformed_;
  telemetry::Counter gro_merged_;
};

}  // namespace prism::kernel
