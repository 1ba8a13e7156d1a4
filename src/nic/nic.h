// Physical NIC model.
//
// Mirrors the relevant behaviour of the paper's ConnectX-5: multiple
// hardware receive queues (RSS — flows are hashed to queues, each queue
// interrupting its own CPU), a fixed-capacity descriptor ring per queue
// (frames are dropped when a ring overflows, which is how overload
// manifests), and NAPI interrupt semantics (the queue's IRQ fires on
// arrival and stays masked until the driver's poll drains the ring and
// re-enables it).
//
// Faithfully to the paper's limitation (§IV-D), the ring has no notion of
// packet priority: PRISM's differentiation begins only at stage-1 skb
// allocation.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault.h"
#include "kernel/probe.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"

namespace prism::nic {

class Wire;

/// Interrupt moderation (ethtool rx-usecs / rx-frames). The paper's
/// ConnectX-5 runs adaptive moderation: at low rate interrupts fire
/// immediately; under load they are rate-limited to one per `usecs`,
/// letting the ring accumulate batches — the source of the deep per-batch
/// queueing the paper's Fig. 5 analysis builds on, while the CPU idles
/// between bursts.
struct CoalesceConfig {
  /// Minimum spacing between interrupts. 0 disables moderation (every
  /// frame fires immediately when the line is unmasked).
  sim::Duration usecs = 0;
  /// Fire early once this many frames are pending.
  int frames = 64;
};

/// One hardware RX queue: descriptor ring + masked/unmasked IRQ line.
class RxQueue {
 public:
  /// One ring descriptor: the frame and its DMA-completion instant.
  struct Entry {
    net::PacketBuf frame;
    sim::Time arrived = 0;
  };

  RxQueue(sim::Simulator& sim, std::size_t capacity,
          CoalesceConfig coalesce = CoalesceConfig{});

  /// Installs the IRQ top-half (typically: schedule the queue's NAPI on
  /// its CPU). The NIC fires it once per idle->pending transition and
  /// masks further interrupts until enable_irq().
  void set_irq_handler(std::function<void()> handler);

  /// DMA of one arrived frame into the ring. Drops (and counts) when the
  /// ring is full. Fires the IRQ if it is unmasked.
  void push(net::PacketBuf frame);

  /// Driver-side dequeue of the oldest frame. nullopt when empty.
  std::optional<Entry> pop();

  bool empty() const noexcept { return ring_.empty(); }
  std::size_t size() const noexcept { return ring_.size(); }

  /// Driver re-enables the interrupt after draining (napi_complete). If
  /// frames raced in meanwhile, the IRQ fires immediately — the same
  /// re-check the kernel performs.
  void enable_irq();

  std::uint64_t frames_received() const noexcept { return received_.value(); }
  std::uint64_t frames_dropped() const noexcept { return dropped_.value(); }
  std::uint64_t irqs_fired() const noexcept { return irqs_.value(); }

  /// Replaces the moderation parameters at runtime (ethtool -C; the
  /// overload governor stretches usecs under declared overload). The new
  /// spacing applies from the next fire decision.
  void set_coalesce(CoalesceConfig coalesce) noexcept {
    coalesce_ = coalesce;
  }
  const CoalesceConfig& coalesce() const noexcept { return coalesce_; }

  /// Registers this queue's counters under `prefix` (e.g. "nic.q0.").
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix);

  /// Attaches the host's fault layer: the plan may force ring-full
  /// episodes and IRQ storms/delays. nullptr detaches.
  void set_faults(fault::FaultLayer* faults) noexcept { faults_ = faults; }

  /// Attaches the host's packet probe: ring overflows report as drops.
  void set_probe(const kernel::PacketProbe* probe) noexcept {
    probe_ = probe;
  }

 private:
  void maybe_fire();
  void fire_irq();

  sim::Simulator& sim_;
  std::size_t capacity_;
  CoalesceConfig coalesce_;
  fault::FaultLayer* faults_ = nullptr;
  const kernel::PacketProbe* probe_ = &kernel::PacketProbe::detached();
  std::deque<Entry> ring_;
  std::function<void()> irq_handler_;
  bool irq_enabled_ = true;
  sim::Time last_fire_ = sim::Time{-1} << 40;  // "long ago"
  bool timer_armed_ = false;
  std::uint64_t epoch_ = 0;  // invalidates stale coalesce timers
  telemetry::Counter received_;
  telemetry::Counter dropped_;
  telemetry::Counter irqs_;
  telemetry::Counter irq_unmasks_;
  telemetry::Counter moderation_fires_;
  telemetry::Gauge ring_depth_;
};

/// Multi-queue NIC attached to one wire.
class Nic {
 public:
  /// `num_queues` RSS queues of `ring_capacity` descriptors each.
  Nic(sim::Simulator& sim, int num_queues, std::size_t ring_capacity,
      CoalesceConfig coalesce = CoalesceConfig{});

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Connects this NIC to a wire endpoint (testbed wiring).
  void attach_wire(Wire& wire) { wire_ = &wire; }

  /// Transmit path: puts a fully built frame on the wire.
  void transmit(net::PacketBuf frame);

  /// Wire-side delivery: hashes the frame to an RSS queue and DMAs it.
  void receive(net::PacketBuf frame);

  int num_queues() const noexcept {
    return static_cast<int>(queues_.size());
  }
  RxQueue& queue(int i) { return *queues_[static_cast<std::size_t>(i)]; }

  std::uint64_t tx_frames() const noexcept { return tx_frames_.value(); }
  std::uint64_t rx_frames() const noexcept { return rx_frames_.value(); }

  /// Total drops across all queue rings.
  std::uint64_t rx_dropped() const;

  /// Registers NIC-level counters under `prefix` and each queue's
  /// counters under `prefix` + "q<i>.".
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix);

  /// Attaches the host's fault layer to the receive path (wire-level
  /// drop/corrupt/truncate/duplicate/reorder) and to every RX queue.
  /// nullptr detaches.
  void set_faults(fault::FaultLayer* faults) noexcept;

  /// Attaches the host's packet probe to the receive path (wire drops,
  /// duplicate classification) and to every RX queue.
  void set_probe(const kernel::PacketProbe* probe) noexcept;

 private:
  int rss_hash(std::span<const std::uint8_t> frame) const;

  /// Post-wire delivery: counts the frame and DMAs it into its RSS ring.
  void deliver_to_ring(net::PacketBuf frame);

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<RxQueue>> queues_;
  fault::FaultLayer* faults_ = nullptr;
  const kernel::PacketProbe* probe_ = &kernel::PacketProbe::detached();
  Wire* wire_ = nullptr;
  telemetry::Counter tx_frames_;
  telemetry::Counter rx_frames_;
};

}  // namespace prism::nic
