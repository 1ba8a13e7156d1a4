// Linux bridge with gro_cells NAPI — stage 2 of the overlay pipeline.
//
// Decapsulated inner frames land in the bridge's per-CPU gro_cell queue
// (the bridge is the one virtual device with its own NAPI implementation,
// paper §II-A3). When polled, the bridge stage parses the inner Ethernet
// header, resolves the destination container through the FDB, and hands
// the packet to the veth/backlog stage via the netif_rx stage transition.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/cost_model.h"
#include "kernel/napi.h"
#include "kernel/stage_transition.h"
#include "overlay/fdb.h"

namespace prism::overlay {

class FlowCache;

/// One RPS steering destination: another CPU's stage-transition helper
/// and backlog napi.
struct RpsTarget {
  kernel::StageTransition* transition = nullptr;
  kernel::QueueNapi* backlog = nullptr;
};

/// Per-CPU bridge forwarding stage.
class BridgeStage final : public kernel::PacketStage {
 public:
  BridgeStage(std::string name, const kernel::CostModel& cost, Fdb& fdb,
              kernel::StageTransition& transition,
              kernel::QueueNapi& backlog)
      : name_(std::move(name)),
        cost_(cost),
        fdb_(fdb),
        transition_(transition),
        backlog_(backlog) {}

  /// Enables Receive Packet Steering at the bridge->veth handoff (where
  /// the kernel's netif_rx applies RPS): flows are hashed across
  /// `targets`. PRISM-sync high-priority packets are exempt — they run
  /// to completion in the current context before netif_rx is reached
  /// (paper §III-B1).
  void enable_rps(std::vector<RpsTarget> targets, sim::Simulator& sim) {
    rps_targets_ = std::move(targets);
    sim_ = &sim;
  }

  sim::Duration process_one(kernel::SkbPtr skb, sim::Time at,
                            double cost_multiplier) override;

  const std::string& name() const override { return name_; }

  std::uint64_t forwarded() const noexcept { return forwarded_.value(); }
  std::uint64_t dropped() const noexcept { return dropped_.value(); }
  std::uint64_t rps_steered() const noexcept {
    return rps_steered_.value();
  }

  /// Registers forwarding counters under `prefix` (e.g. "overlay.br42.").
  /// The per-CPU stages of one bridge share a prefix and aggregate.
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix) {
    reg.add(prefix + "forwarded", forwarded_);
    reg.add(prefix + "fdb_drops", dropped_);
    reg.add(prefix + "rps_steered", rps_steered_);
  }

  /// Attaches the host's packet probe: an FDB miss ends the packet's
  /// journey there.
  void set_probe(const kernel::PacketProbe* probe) noexcept {
    probe_ = probe;
  }

  /// Attaches the host's overlay flow cache: every successful FDB
  /// resolve of a UDP flow fills (or refreshes) the flow's cached
  /// transform under `vni`. nullptr detaches.
  void set_flow_cache(FlowCache* cache, std::uint32_t vni) noexcept {
    flow_cache_ = cache;
    vni_ = vni;
  }

 private:
  std::string name_;
  const kernel::CostModel& cost_;
  const kernel::PacketProbe* probe_ = &kernel::PacketProbe::detached();
  FlowCache* flow_cache_ = nullptr;
  std::uint32_t vni_ = 0;
  Fdb& fdb_;
  kernel::StageTransition& transition_;
  kernel::QueueNapi& backlog_;
  std::vector<RpsTarget> rps_targets_;
  sim::Simulator* sim_ = nullptr;
  telemetry::Counter forwarded_;
  telemetry::Counter dropped_;
  telemetry::Counter rps_steered_;
};

/// One overlay bridge (one VNI) on one host: FDB plus per-CPU gro_cells.
class Bridge {
 public:
  /// `backlogs[i]` / `transitions[i]` are CPU i's backlog napi and stage
  /// transition helper; one gro_cell is created per CPU.
  Bridge(std::uint32_t vni, const kernel::CostModel& cost, Fdb& fdb,
         const std::vector<kernel::StageTransition*>& transitions,
         const std::vector<kernel::QueueNapi*>& backlogs);

  std::uint32_t vni() const noexcept { return vni_; }

  /// The gro_cell napi of CPU `cpu` (decap enqueues here).
  kernel::QueueNapi& cell(int cpu) {
    return *cells_[static_cast<std::size_t>(cpu)].napi;
  }

  BridgeStage& stage(int cpu) {
    return *cells_[static_cast<std::size_t>(cpu)].stage;
  }

 private:
  struct Cell {
    std::unique_ptr<BridgeStage> stage;
    std::unique_ptr<kernel::QueueNapi> napi;
  };

  std::uint32_t vni_;
  std::vector<Cell> cells_;
};

}  // namespace prism::overlay
