#include "kernel/tcp.h"

#include <algorithm>
#include <cassert>

#include "net/headers.h"
#include "overlay/netns.h"

namespace prism::kernel {

TcpEndpoint::TcpEndpoint(sim::Simulator& sim, const CostModel& cost,
                         Config config)
    : sim_(sim), cost_(cost), cfg_(std::move(config)) {
  assert(cfg_.ns != nullptr && "TcpEndpoint needs a namespace");
  assert(cfg_.mss > 0);
}

net::FiveTuple TcpEndpoint::incoming_flow() const noexcept {
  return net::FiveTuple{cfg_.remote_ip, cfg_.local_ip, cfg_.remote_port,
                        cfg_.local_port, net::IpProto::kTcp};
}

net::PacketBuf TcpEndpoint::build_segment(
    std::uint32_t seq, std::span<const std::uint8_t> payload,
    bool push) const {
  net::FrameSpec spec;
  spec.src_mac = cfg_.ns->mac();
  // A missing neighbour yields a zero MAC: the segment transmits but no
  // receiver claims it, so it degrades to an unroutable drop downstream
  // instead of aborting the lane.
  spec.dst_mac = cfg_.ns->neighbor(cfg_.remote_ip).value_or(net::MacAddr{});
  spec.src_ip = cfg_.local_ip;
  spec.dst_ip = cfg_.remote_ip;
  spec.src_port = cfg_.local_port;
  spec.dst_port = cfg_.remote_port;

  net::TcpHeader tcp;
  tcp.seq = seq;
  tcp.ack = rcv_nxt_;
  tcp.flags = net::TcpFlags::kAck |
              (push ? net::TcpFlags::kPsh : std::uint8_t{0});
  return net::build_tcp_frame(spec, tcp, payload);
}

void TcpEndpoint::send(std::vector<std::uint8_t> data, Cpu& cpu) {
  if (data.empty()) return;
  const std::size_t nsegs = (data.size() + cfg_.mss - 1) / cfg_.mss;
  // TSO: one full egress pass plus a small per-extra-segment cost.
  sim::Duration cpu_cost =
      cost_.syscall_cost + cost_.copy_cost(data.size()) +
      cost_.tx_per_packet +
      static_cast<sim::Duration>(nsegs - 1) * cost_.tx_tso_per_segment;
  if (cfg_.ns->is_container()) cpu_cost += cost_.tx_overlay_extra;

  cpu.run_task(cpu_cost, [this, data = std::move(data)] {
    const std::uint32_t from = snd_nxt_;
    rtx_buffer_.insert(rtx_buffer_.end(), data.begin(), data.end());
    snd_nxt_ += static_cast<std::uint32_t>(data.size());
    transmit_range(from, data, sim_.now());
    arm_rto();
  });
}

void TcpEndpoint::transmit_range(std::uint32_t from_seq,
                                 std::span<const std::uint8_t> data,
                                 sim::Time at) {
  for (std::size_t off = 0; off < data.size(); off += cfg_.mss) {
    const std::size_t len = std::min(cfg_.mss, data.size() - off);
    const bool last = off + len >= data.size();
    net::PacketBuf frame = build_segment(
        from_seq + static_cast<std::uint32_t>(off), data.subspan(off, len),
        last);
    sim_.schedule_at(at, [this, f = std::move(frame)]() mutable {
      cfg_.ns->egress(std::move(f));
    });
  }
}

sim::Duration TcpEndpoint::handle_segment(
    const net::TcpHeader& header, std::span<const std::uint8_t> payload,
    sim::Time at, bool ack_now) {
  sim::Duration extra = 0;

  // --- ACK processing (sender side) ---------------------------------
  if ((header.flags & net::TcpFlags::kAck) != 0 &&
      seq_gt(header.ack, snd_una_)) {
    const std::uint32_t acked = header.ack - snd_una_;
    rtx_head_ += std::min<std::size_t>(acked, unacked_bytes());
    if (rtx_head_ == rtx_buffer_.size()) {
      rtx_buffer_.clear();
      rtx_head_ = 0;
    } else if (2 * rtx_head_ > rtx_buffer_.size()) {
      rtx_buffer_.erase(rtx_buffer_.begin(),
                        rtx_buffer_.begin() +
                            static_cast<std::ptrdiff_t>(rtx_head_));
      rtx_head_ = 0;
    }
    snd_una_ = header.ack;
    // Restart (or stop) the retransmission timer.
    rto_deadline_ = -1;
    arm_rto();
  }

  // --- data processing (receiver side) --------------------------------
  if (!payload.empty()) {
    if (header.seq == rcv_nxt_) {
      rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
      // Size the chunk for the now-contiguous out-of-order tail too, so
      // it takes one pooled block.
      std::size_t tail = 0;
      auto it = ooo_.begin();
      for (std::uint32_t next = rcv_nxt_;
           it != ooo_.end() && it->first == next; ++it) {
        next += static_cast<std::uint32_t>(it->second.size());
        tail += it->second.size();
      }
      net::PacketBuf chunk = net::PacketBuf::with_headroom(0, payload, tail);
      for (auto o = ooo_.begin(); o != it; ++o) chunk.append(o->second);
      rcv_nxt_ += static_cast<std::uint32_t>(tail);
      ooo_.erase(ooo_.begin(), it);
      delivered_ += chunk.size();
      if (on_data) {
        // The block returns to the pool when the event is destroyed:
        // after on_data has run, or unrun at teardown.
        sim_.schedule_at(at, [this, chunk = std::move(chunk), at] {
          on_data(chunk.bytes(), at);
        });
      }  // else the chunk's block returns to the pool here
    } else if (seq_gt(header.seq, rcv_nxt_)) {
      ooo_.emplace(header.seq,
                   std::vector<std::uint8_t>(payload.begin(),
                                             payload.end()));
    }
    // else: duplicate of already-delivered data — drop, still ACK.
    if (ack_now) {
      send_ack(at);
      extra += cost_.tx_ack;
    }
  }
  return extra;
}

void TcpEndpoint::send_ack(sim::Time at) {
  ++acks_sent_;
  net::PacketBuf frame = build_segment(snd_nxt_, {}, false);
  sim_.schedule_at(at, [this, f = std::move(frame)]() mutable {
    cfg_.ns->egress(std::move(f));
  });
}

void TcpEndpoint::arm_rto() {
  if (rto_deadline_ >= 0 || unacked_bytes() == 0) return;
  rto_deadline_ = sim_.now() + cfg_.rto;
  if (!rto_queued_) queue_rto_timer(rto_deadline_);
}

void TcpEndpoint::queue_rto_timer(sim::Time at) {
  rto_queued_ = true;
  sim_.schedule_at(at, [this] { on_rto(); });
}

void TcpEndpoint::on_rto() {
  rto_queued_ = false;
  if (rto_deadline_ < 0) return;  // stopped: everything was acked
  if (sim_.now() < rto_deadline_) {
    queue_rto_timer(rto_deadline_);  // an ACK moved the deadline
    return;
  }
  rto_deadline_ = -1;
  ++retransmits_;
  // Go-back-N from snd_una, bounded to one 64 KB window per timeout so a
  // timeout burst cannot flood the link.
  const std::size_t window = std::min<std::size_t>(unacked_bytes(),
                                                   64 * 1024);
  transmit_range(snd_una_,
                 std::span<const std::uint8_t>(
                     rtx_buffer_.data() + rtx_head_, window),
                 sim_.now());
  arm_rto();
}

}  // namespace prism::kernel
