#include "kernel/protocol.h"

#include <algorithm>

#include "fault/fault.h"
#include "kernel/overload.h"
#include "kernel/socket.h"
#include "sim/pool.h"
#include "kernel/tcp.h"
#include "net/flow.h"
#include "overlay/netns.h"
#include "telemetry/anomaly.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/flow_table.h"
#include "telemetry/latency.h"

namespace prism::kernel {

sim::Duration SocketDeliverer::deliver(Skb& skb, sim::Time at,
                                       overlay::Netns& ns) {
  if (!ns.accepting()) {
    // Destination namespace is draining or torn down. Every wire frame of
    // the train (head + GRO chain) drops as kDeadNetns; no delivery stamps
    // are recorded, so the journey counts as dropped, never as delivered.
    // The namespace object is a tombstone — observing its state here is
    // exactly why stale Netns* pointers stay safe to hold.
    const auto frames =
        static_cast<std::uint64_t>(1 + skb.gro_chain.size());
    dead_ns_drops_ += frames;
    for (std::uint64_t i = 0; i < frames; ++i) {
      t_dead_ns_drops_->inc();
      if (faults_ != nullptr) {
        faults_->drops.record(fault::DropReason::kDeadNetns, skb.priority);
      }
    }
    return 0;
  }
  skb.ts.socket_enqueue = at;
#if PRISM_TELEMETRY_ENABLED
  // The journey [nic_rx, socket_enqueue] is complete: attribute it per
  // stage, once per skb (a GRO train shares its head's timestamps).
  if (ledger_ != nullptr) ledger_->record_delivery(skb.ts, skb.priority);
  // Recorder-observed class: equals priority in Prism modes; in vanilla
  // the datapath never classifies, so the side-channel classification
  // carries the class the SLO detector should attribute this journey to.
  const int observed = skb.observed_class > skb.priority
                           ? static_cast<int>(skb.observed_class)
                           : skb.priority;
  if (anomalies_ != nullptr && skb.ts.nic_rx >= 0) {
    anomalies_->on_delivery(observed, at - skb.ts.nic_rx, at);
  }
  if (recorder_ != nullptr && skb.traced && skb.parsed) {
    recorder_->on_deliver(net::flow_of(*skb.parsed), observed,
                          skb.ts.nic_rx >= 0 ? at - skb.ts.nic_rx : 0, at);
  }
#endif
  sim::Duration extra =
      deliver_frame(skb, skb.buf.bytes(), skb.parsed ? &*skb.parsed : nullptr,
                    at, ns, skb.gro_chain.empty());
  for (std::size_t i = 0; i < skb.gro_chain.size(); ++i) {
    extra += deliver_frame(skb, skb.gro_chain[i].bytes(), nullptr, at, ns,
                           i + 1 == skb.gro_chain.size());
  }
  if (trace_) trace_->on_delivered(skb, at);
  return extra;
}

sim::Duration SocketDeliverer::deliver_frame(
    const Skb& skb, std::span<const std::uint8_t> frame,
    const net::ParsedFrame* pre_parsed, sim::Time at, overlay::Netns& ns,
    bool final_frame) {
  net::ParsedFrame local;
  if (pre_parsed == nullptr && net::parse_frame_into(frame, local)) {
    pre_parsed = &local;
  }
  const auto* parsed = pre_parsed;
  if (!parsed) {
    ++drops_;
    t_no_socket_drops_->inc();
    if (faults_ != nullptr) {
      faults_->drops.record(fault::DropReason::kMalformed, skb.priority);
    }
    return 0;
  }
#if PRISM_TELEMETRY_ENABLED
  // Per-flow accounting (one record per wire frame, so a GRO train
  // counts each merged segment). e2e < 0 skips the latency histogram
  // for synthetically injected skbs without a nic_rx stamp. `reason` is
  // the fault::DropReason code on failure (-1 on success), threaded into
  // the flow table's drop history and the flight recorder.
  const auto account = [&](bool delivered_ok, int reason) {
    if (!delivered_ok && recorder_ != nullptr && skb.traced) {
      const int observed = skb.observed_class > skb.priority
                               ? static_cast<int>(skb.observed_class)
                               : skb.priority;
      recorder_->on_drop(net::flow_of(*parsed), 4, observed, reason, at);
    }
    if (flows_ == nullptr) return;
    flows_->record_frame(net::flow_of(*parsed), frame.size(),
                         skb.priority,
                         skb.ts.nic_rx >= 0 ? at - skb.ts.nic_rx : -1, at,
                         delivered_ok, reason);
  };
#else
  const auto account = [](bool, int) {};
#endif
  if (parsed->udp) {
    // Receive-side L4 validation: a UDP checksum of zero means "not
    // computed" (RFC 768; VXLAN outer headers use it per RFC 7348) and
    // verify_checksum accepts it. Anything else must verify over the
    // pseudo-header, catching payload/header bit-flips that survived the
    // IPv4 header checksum.
    const auto datagram = frame.subspan(
        parsed->l4_payload_offset - net::UdpHeader::kSize,
        parsed->udp->length);
    if (!net::UdpHeader::verify_checksum(datagram, parsed->ip.src,
                                         parsed->ip.dst)) {
      ++csum_drops_;
      t_csum_drops_->inc();
      if (faults_ != nullptr) {
        faults_->drops.record(fault::DropReason::kChecksum, skb.priority);
      }
      account(false, static_cast<int>(fault::DropReason::kChecksum));
      return 0;
    }
    UdpSocket* sock = ns.sockets().lookup_udp(parsed->udp->dst_port);
    if (sock == nullptr) {
      ++drops_;
      t_no_socket_drops_->inc();
      if (faults_ != nullptr) {
        faults_->drops.record(fault::DropReason::kNoSocket, skb.priority);
      }
      account(false, static_cast<int>(fault::DropReason::kNoSocket));
      return 0;
    }
    if (faults_ != nullptr && faults_->plan.buf_alloc_fails()) {
      // Injected BufferPool starvation at the socket-buffer copy: the
      // kernel's sk_rmem allocation failure, dropped before any datagram
      // state exists.
      faults_->drops.record(fault::DropReason::kAllocFail, skb.priority);
      account(false, static_cast<int>(fault::DropReason::kAllocFail));
      return 0;
    }
    Datagram d;
    d.src_ip = parsed->ip.src;
    d.src_port = parsed->udp->src_port;
    d.payload = sim::BufferPool::instance().acquire(parsed->l4_payload.size());
    std::copy(parsed->l4_payload.begin(), parsed->l4_payload.end(),
              d.payload.begin());
    d.enqueued_at = at;
    d.high_priority = skb.high_priority();
    d.priority = skb.priority;
    d.ts = skb.ts;
    sock->enqueue(std::move(d), at);
    ++delivered_;
    t_delivered_->inc();
    if (governor_ != nullptr) governor_->note_delivery();
    account(true, -1);
    return 0;
  }
  if (parsed->tcp) {
    const auto segment = frame.subspan(
        parsed->l4_payload_offset - net::TcpHeader::kSize,
        net::TcpHeader::kSize + parsed->l4_payload.size());
    if (!net::TcpHeader::verify_checksum(segment, parsed->ip.src,
                                         parsed->ip.dst)) {
      ++csum_drops_;
      t_csum_drops_->inc();
      if (faults_ != nullptr) {
        faults_->drops.record(fault::DropReason::kChecksum, skb.priority);
      }
      account(false, static_cast<int>(fault::DropReason::kChecksum));
      return 0;
    }
    TcpEndpoint* ep = ns.sockets().lookup_tcp(net::flow_of(*parsed));
    if (ep == nullptr) {
      ++drops_;
      t_no_socket_drops_->inc();
      if (faults_ != nullptr) {
        faults_->drops.record(fault::DropReason::kNoSocket, skb.priority);
      }
      account(false, static_cast<int>(fault::DropReason::kNoSocket));
      return 0;
    }
    ++delivered_;
    t_delivered_->inc();
    if (governor_ != nullptr) governor_->note_delivery();
    account(true, -1);
    return ep->handle_segment(*parsed->tcp, parsed->l4_payload, at,
                              final_frame);
  }
  ++drops_;
  t_no_socket_drops_->inc();
  if (faults_ != nullptr) {
    faults_->drops.record(fault::DropReason::kNoSocket, skb.priority);
  }
  account(false, static_cast<int>(fault::DropReason::kNoSocket));
  return 0;
}

}  // namespace prism::kernel
