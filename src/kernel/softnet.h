// Per-CPU softnet data: the backlog NAPI — stage 3 of the overlay
// pipeline.
//
// Virtual devices without their own NAPI implementation (veth) use the
// per-CPU backlog: netif_rx enqueues their packets into softnet_data's
// input_pkt_queue and the generic process_backlog poll function drains it
// (paper §II-A3). PRISM adds a second, high-priority input queue next to
// it (paper §IV-B) — in this codebase that is QueueNapi's high_queue.
//
// The backlog stage performs the packet's final protocol processing in the
// destination container's namespace and delivers it to the socket.
#pragma once

#include <cstdint>
#include <string>

#include "kernel/cost_model.h"
#include "kernel/napi.h"
#include "kernel/protocol.h"

namespace prism::kernel {

/// Stage 3: inner L3/L4 processing + socket delivery in the container
/// namespace the bridge resolved.
class BacklogStage final : public PacketStage {
 public:
  BacklogStage(std::string name, const CostModel& cost,
               SocketDeliverer& deliverer)
      : name_(std::move(name)), cost_(cost), deliverer_(deliverer) {}

  sim::Duration process_one(SkbPtr skb, sim::Time at,
                            double cost_multiplier) override;

  const std::string& name() const override { return name_; }

  std::uint64_t delivered() const noexcept { return delivered_.value(); }
  std::uint64_t dropped() const noexcept { return dropped_.value(); }

  /// Registers stage counters under `prefix` (e.g. "cpu0.veth.").
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix) {
    reg.add(prefix + "delivered", delivered_);
    reg.add(prefix + "dropped", dropped_);
  }

  /// Attaches the host's packet probe: null/dead-netns drops end the
  /// packet's journey there.
  void set_probe(const PacketProbe* probe) noexcept { probe_ = probe; }

 private:
  std::string name_;
  const CostModel& cost_;
  const PacketProbe* probe_ = &PacketProbe::detached();
  SocketDeliverer& deliverer_;
  telemetry::Counter delivered_;
  telemetry::Counter dropped_;
};

}  // namespace prism::kernel
