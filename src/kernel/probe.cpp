#include "kernel/probe.h"

#include "net/flow.h"
#include "prism/priority_db.h"
#include "sim/simulator.h"
#include "telemetry/anomaly.h"
#include "telemetry/flow_table.h"
#include "telemetry/latency.h"

namespace prism::kernel {

const PacketProbe& PacketProbe::detached() noexcept {
  static const PacketProbe probe;
  return probe;
}

int PacketProbe::frame_class(std::span<const std::uint8_t> frame) const {
  if (!prism_mode || priority_db == nullptr) return 0;
  return priority_db->classify(frame);
}

void PacketProbe::drop(fault::DropReason reason, int level) const {
  const int cls = fault::clamp_class(level);
  if (drops != nullptr) drops->record(reason, cls);
  // Mid-flight drops count as unattributed instead of leaking their
  // partial stamps into the stage histograms.
  if (latency != nullptr) latency->record_dropped(cls);
  if (anomalies != nullptr) {
    anomalies->on_drop(static_cast<int>(reason), cls, clock->now());
  }
}

void PacketProbe::drop(fault::DropReason reason,
                       std::span<const std::uint8_t> frame) const {
  drop(reason, frame_class(frame));
}

void PacketProbe::drop(fault::DropReason reason, int level, const Skb& skb,
                       int stage, sim::Time at, int frames) const {
  for (int i = 0; i < frames; ++i) drop(reason, level);
  if (recorder != nullptr && skb.traced && skb.parsed) {
    recorder->on_drop(net::flow_of(*skb.parsed), stage, observed(skb),
                      static_cast<int>(reason), at);
  }
}

void PacketProbe::drop_frame(fault::DropReason reason, const Skb& skb,
                             const net::ParsedFrame& frame,
                             std::size_t bytes, sim::Time at) const {
  drop(reason, skb.priority);
  const net::FiveTuple flow = net::flow_of(frame);
  if (recorder != nullptr && skb.traced) {
    recorder->on_drop(flow, 4, observed(skb), static_cast<int>(reason), at);
  }
  // One record per wire frame, so a GRO train counts each segment; e2e <
  // 0 skips the latency histogram for skbs without a nic_rx stamp.
  if (flows != nullptr) {
    flows->record_frame(flow, bytes, skb.priority,
                        skb.ts.nic_rx >= 0 ? at - skb.ts.nic_rx : -1, at,
                        /*delivered=*/false, static_cast<int>(reason));
  }
}

void PacketProbe::sample(Skb& skb, const net::ParsedFrame& outer,
                         const net::ParsedFrame* inner, sim::Time arrived,
                         sim::Time dequeued) const {
  int observed_class = skb.priority;
  if (!prism_mode && priority_db != nullptr) {
    // Vanilla never classifies on the datapath (priority stays 0); the
    // probe classifies on the side — wall-clock cost only, no simulated
    // cost — so inversions suffered by would-be-high flows are
    // attributable in the baseline too.
    observed_class = priority_db->classify(outer, inner);
  }
  skb.observed_class = static_cast<std::int8_t>(observed_class);
  // An overlay packet whose inner frame failed to parse has no journey
  // flow, so it is never traced.
  const net::ParsedFrame* journey = outer.is_vxlan() ? inner : &outer;
  if (journey == nullptr) return;
  const net::FiveTuple flow = net::flow_of(*journey);
  if (!recorder->should_trace(flow, observed_class)) return;
  skb.traced = true;
  recorder->on_ring_arrival(flow, observed_class, arrived, dequeued);
  // The NIC ring is a priority-blind FIFO: no head class.
  if (anomalies != nullptr) {
    anomalies->on_stage_wait(flow, 1, observed_class,
                             arrived >= 0 ? dequeued - arrived : 0, -1,
                             dequeued);
  }
}

void PacketProbe::irq_to_poll(sim::Duration d) const {
  if (latency != nullptr) latency->record_irq_to_poll(d);
}

void PacketProbe::stage_enqueue(Skb& skb, int stage, int depth,
                                int head_class) const {
  if (recorder == nullptr || !skb.traced || !skb.parsed) return;
  skb.head_class_at_enqueue = static_cast<std::int8_t>(head_class);
  recorder->on_enqueue(net::flow_of(*skb.parsed), stage, observed(skb),
                       depth, head_class, last_done_stamp(skb));
}

void PacketProbe::stage_dequeue(const Skb& skb, int stage,
                                sim::Time at) const {
  if (recorder == nullptr || !skb.traced || !skb.parsed) return;
  // Queue wait replayed against the head class captured at enqueue; the
  // anomaly bank turns (wait, head) into inversion findings.
  const net::FiveTuple flow = net::flow_of(*skb.parsed);
  const sim::Duration wait = at - last_done_stamp(skb);
  recorder->on_dequeue(flow, stage, observed(skb), wait,
                       skb.head_class_at_enqueue, at);
  if (anomalies != nullptr) {
    anomalies->on_stage_wait(flow, stage, observed(skb), wait,
                             skb.head_class_at_enqueue, at);
  }
}

void PacketProbe::fast_path(const Skb& skb, sim::Time at) const {
  if (recorder == nullptr || !skb.traced || !skb.parsed) return;
  recorder->on_fast_path(net::flow_of(*skb.parsed), observed(skb), at);
}

void PacketProbe::deliver(const Skb& skb, sim::Time at) const {
  // The journey [nic_rx, socket_enqueue] is complete: attribute it per
  // stage, once per skb (a GRO train shares its head's timestamps).
  if (latency != nullptr) latency->record_delivery(skb.ts, skb.priority);
  // The SLO detector sees every delivery, not just the sampled ones.
  if (anomalies != nullptr && skb.ts.nic_rx >= 0) {
    anomalies->on_delivery(observed(skb), at - skb.ts.nic_rx, at);
  }
  if (recorder != nullptr && skb.traced && skb.parsed) {
    recorder->on_deliver(net::flow_of(*skb.parsed), observed(skb),
                         skb.ts.nic_rx >= 0 ? at - skb.ts.nic_rx : 0, at);
  }
}

void PacketProbe::deliver_frame(const Skb& skb,
                                const net::ParsedFrame& frame,
                                std::size_t bytes, sim::Time at) const {
  if (flows == nullptr) return;
  flows->record_frame(net::flow_of(frame), bytes, skb.priority,
                      skb.ts.nic_rx >= 0 ? at - skb.ts.nic_rx : -1, at,
                      /*delivered=*/true, -1);
}

void PacketProbe::socket_wait(sim::Duration d, int level) const {
  if (latency != nullptr) latency->record_socket_wait(d, level);
}

}  // namespace prism::kernel
