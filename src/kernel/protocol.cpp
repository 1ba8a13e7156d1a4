#include "kernel/protocol.h"

#include <algorithm>

#include "fault/fault.h"
#include "kernel/overload.h"
#include "kernel/socket.h"
#include "sim/pool.h"
#include "kernel/tcp.h"
#include "net/flow.h"
#include "overlay/netns.h"

namespace prism::kernel {

sim::Duration SocketDeliverer::deliver(Skb& skb, sim::Time at,
                                       overlay::Netns& ns) {
  if (!ns.accepting()) {
    // Destination namespace is draining or torn down. Every wire frame of
    // the train (head + GRO chain) drops as kDeadNetns; no delivery stamps
    // are recorded, so the journey counts as dropped, never as delivered.
    // The namespace object is a tombstone — observing its state here is
    // exactly why stale Netns* pointers stay safe to hold.
    const int frames = 1 + static_cast<int>(skb.gro_chain.size());
    dead_ns_drops_.inc(static_cast<std::uint64_t>(frames));
    probe_->drop(fault::DropReason::kDeadNetns, skb.priority, skb,
                 /*stage=*/4, at, frames);
    return 0;
  }
  skb.ts.socket_enqueue = at;
  probe_->deliver(skb, at);
  sim::Duration extra =
      deliver_frame(skb, skb.buf.bytes(), skb.parsed ? &*skb.parsed : nullptr,
                    at, ns, skb.gro_chain.empty());
  for (std::size_t i = 0; i < skb.gro_chain.size(); ++i) {
    extra += deliver_frame(skb, skb.gro_chain[i].bytes(), nullptr, at, ns,
                           i + 1 == skb.gro_chain.size());
  }
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
    drops_.inc();
    probe_->drop(fault::DropReason::kMalformed, skb.priority);
    return 0;
  }
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
      csum_drops_.inc();
      probe_->drop_frame(fault::DropReason::kChecksum, skb, *parsed,
                         frame.size(), at);
      return 0;
    }
    UdpSocket* sock = ns.sockets().lookup_udp(parsed->udp->dst_port);
    if (sock == nullptr) {
      drops_.inc();
      probe_->drop_frame(fault::DropReason::kNoSocket, skb, *parsed,
                         frame.size(), at);
      return 0;
    }
    if (faults_ != nullptr && faults_->plan.buf_alloc_fails()) {
      // Injected BufferPool starvation at the socket-buffer copy: the
      // kernel's sk_rmem allocation failure, dropped before any datagram
      // state exists.
      probe_->drop_frame(fault::DropReason::kAllocFail, skb, *parsed,
                         frame.size(), at);
      return 0;
    }
    Datagram d;
    d.src_ip = parsed->ip.src;
    d.src_port = parsed->udp->src_port;
    d.payload = sim::BufferPool::instance().acquire(parsed->l4_payload.size());
    std::copy(parsed->l4_payload.begin(), parsed->l4_payload.end(),
              d.payload.begin());
    d.high_priority = skb.high_priority();
    d.priority = skb.priority;
    d.ts = skb.ts;
    sock->enqueue(std::move(d), at);
    delivered_.inc();
    if (governor_ != nullptr) governor_->note_delivery();
    probe_->deliver_frame(skb, *parsed, frame.size(), at);
    return 0;
  }
  if (parsed->tcp) {
    const auto segment = frame.subspan(
        parsed->l4_payload_offset - net::TcpHeader::kSize,
        net::TcpHeader::kSize + parsed->l4_payload.size());
    if (!net::TcpHeader::verify_checksum(segment, parsed->ip.src,
                                         parsed->ip.dst)) {
      csum_drops_.inc();
      probe_->drop_frame(fault::DropReason::kChecksum, skb, *parsed,
                         frame.size(), at);
      return 0;
    }
    TcpEndpoint* ep = ns.sockets().lookup_tcp(net::flow_of(*parsed));
    if (ep == nullptr) {
      drops_.inc();
      probe_->drop_frame(fault::DropReason::kNoSocket, skb, *parsed,
                         frame.size(), at);
      return 0;
    }
    delivered_.inc();
    if (governor_ != nullptr) governor_->note_delivery();
    probe_->deliver_frame(skb, *parsed, frame.size(), at);
    return ep->handle_segment(*parsed->tcp, parsed->l4_payload, at,
                              final_frame);
  }
  drops_.inc();
  probe_->drop_frame(fault::DropReason::kNoSocket, skb, *parsed,
                     frame.size(), at);
  return 0;
}

}  // namespace prism::kernel
