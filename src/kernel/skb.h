// Socket buffer — the packet metadata structure of the simulated stack.
//
// Mirrors the kernel's sk_buff role: one Skb travels through every stage of
// the reception pipeline, carrying the packet bytes plus the metadata PRISM
// adds (the priority bit assigned once at stage-1 skb allocation, paper
// §IV-A) and the per-stage timestamps the latency analysis uses.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"

namespace prism::overlay {
class Netns;
}

namespace prism::kernel {

/// Life-cycle timestamps of one packet through the reception pipeline.
/// A value of -1 means "stage not traversed".
///
/// The *_start/_done pairs bracket each stage's service time; the gaps
/// between a stage's `done` and the next stage's `start` are queue waits.
/// Because the stamps are consecutive instants of one journey, the
/// traversed segments telescope: they sum exactly to
/// socket_enqueue - nic_rx, which is what lets the latency ledger
/// (telemetry/latency.h) attribute end-to-end latency per stage without
/// residue.
struct SkbTimestamps {
  sim::Time nic_rx = -1;       ///< frame landed in the NIC ring (DMA)
  sim::Time stage1_start = -1; ///< NIC driver poll dequeued the frame
  sim::Time stage1_done = -1;  ///< NIC driver processing finished
  sim::Time stage2_start = -1; ///< bridge stage began serving the skb
  sim::Time stage2_done = -1;  ///< bridge processing finished
  sim::Time stage3_start = -1; ///< backlog/veth stage began serving
  sim::Time stage3_done = -1;  ///< backlog/veth processing finished
  sim::Time flowcache_done = -1;  ///< flow-cache fast path applied the
                                  ///< cached transform (stages 2-3 skipped)
  sim::Time socket_enqueue = -1;  ///< enqueued to the socket buffer
};

/// Simulated sk_buff.
struct Skb {
  net::PacketBuf buf;

  /// PRISM's addition to sk_buff: priority determined once, at skb
  /// allocation in the physical driver, from the high-priority flow
  /// database (paper §IV-A). 0 = best-effort; higher values are more
  /// urgent. The published design uses two levels; this implementation
  /// generalizes to kNumPriorityLevels (the paper's §VII-3 future work).
  int priority = 0;

  /// Convenience: any non-best-effort level.
  bool high_priority() const noexcept { return priority > 0; }

  /// Number of wire frames this skb represents (>1 after GRO merge).
  int segments = 1;

  /// Frames GRO-merged behind `buf` (same flow, in order). Later stages
  /// charge their per-skb cost once for the whole chain — the GRO win.
  std::vector<net::PacketBuf> gro_chain;

  /// Destination namespace, resolved by the bridge's FDB lookup (stage 2)
  /// for overlay packets.
  overlay::Netns* dst_netns = nullptr;

  /// Reception pipeline stage the skb is queued for (1-based; 0 = not yet
  /// in the pipeline).
  int stage = 0;

  /// Parse of the current `buf` bytes, cached where the packet enters the
  /// pipeline so later stages (bridge FDB lookup, socket delivery) reuse
  /// it instead of re-parsing. The spans point into `buf`'s storage and
  /// are invalidated by any mutation of `buf`.
  std::optional<net::ParsedFrame> parsed;

  /// Flight-recorder sampling decision, made once at stage-1 dequeue so
  /// later stages test one bool instead of re-hashing the flow.
  bool traced = false;

  /// Priority class as the recorder sees it: equals `priority` in Prism
  /// modes; in vanilla mode (which never classifies, priority stays 0)
  /// the packet probe classifies on the side so inversions suffered by
  /// would-be-high flows are attributable. Never consulted by the
  /// datapath — observability only.
  std::int8_t observed_class = 0;

  /// Priority class at the head of the stage queue when this skb was
  /// enqueued (-1 = queue was empty). Replayed at dequeue so the
  /// inversion detector knows what the skb waited behind.
  std::int8_t head_class_at_enqueue = -1;

  /// Overlay flow-cache generation observed when this packet was
  /// classified at stage 1. A stage-2 cache fill records this value (not
  /// the fill-time generation), so a mutation landing between
  /// classification and fill leaves the entry already stale instead of
  /// poisoning the cache. 0 when the cache is not in play.
  std::uint64_t flowcache_gen = 0;

  SkbTimestamps ts;
};

/// Latest completed-stage stamp of `skb` — the instant it was handed to
/// whatever queue it currently sits in. Used by the packet probe to date
/// enqueues and measure queue waits without widening the enqueue API
/// with a time parameter.
inline sim::Time last_done_stamp(const Skb& skb) noexcept {
  if (skb.ts.stage2_done >= 0) return skb.ts.stage2_done;
  if (skb.ts.stage1_done >= 0) return skb.ts.stage1_done;
  if (skb.ts.nic_rx >= 0) return skb.ts.nic_rx;
  return 0;
}

/// Deleter that hands the Skb back to the process-global SkbPool
/// (kernel/skb_pool.h) instead of freeing it. Stateless, so SkbPtr can be
/// re-materialised from a raw pointer (`SkbPtr(raw)`) after a release().
struct SkbRecycler {
  void operator()(Skb* skb) const noexcept;
};

/// Owning handle to an Skb; dropping it recycles the skb (and the packet
/// storage it carries) for the next packet.
using SkbPtr = std::unique_ptr<Skb, SkbRecycler>;

/// Allocates an skb from the slab pool — the mandatory allocation path
/// (the pool's hit-rate counters are how benchmarks prove the hot loop is
/// allocation-free).
SkbPtr alloc_skb();

}  // namespace prism::kernel
