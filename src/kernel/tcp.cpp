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

void TcpEndpoint::send(std::span<const std::uint8_t> data, Cpu& cpu) {
  if (data.empty()) return;
  const std::size_t nsegs = (data.size() + cfg_.mss - 1) / cfg_.mss;
  // TSO: one full egress pass plus a small per-extra-segment cost.
  sim::Duration cpu_cost =
      cost_.syscall_cost + cost_.copy_cost(data.size()) +
      cost_.tx_per_packet +
      static_cast<sim::Duration>(nsegs - 1) * cost_.tx_tso_per_segment;
  if (cfg_.ns->is_container()) cpu_cost += cost_.tx_overlay_extra;

  // Stage the bytes behind those of every earlier send; `seq` is where
  // they start once those have committed.
  const auto seq = static_cast<std::uint32_t>(
      snd_nxt_ + (snd_buf_.size() - snd_commit_));
  const auto len = static_cast<std::uint32_t>(data.size());
  snd_buf_.insert(snd_buf_.end(), data.begin(), data.end());
  cpu.run_task(cpu_cost, [this, seq, len] {
    assert(seq == snd_nxt_ && "an endpoint's sends commit in call order");
    const std::span<const std::uint8_t> bytes(snd_buf_.data() + snd_commit_,
                                              len);
    snd_commit_ += len;
    snd_nxt_ += len;
    transmit_range(seq, bytes, sim_.now());
    arm_rto();
  });
}

void TcpEndpoint::transmit_range(std::uint32_t from_seq,
                                 std::span<const std::uint8_t> data,
                                 sim::Time at) {
  std::size_t n = 0;
  for (std::size_t off = 0; off < data.size(); off += cfg_.mss, ++n) {
    const std::size_t len = std::min(cfg_.mss, data.size() - off);
    const bool last = off + len >= data.size();
    tx_queue_.push_back(build_segment(
        from_seq + static_cast<std::uint32_t>(off), data.subspan(off, len),
        last));
  }
  // One event for the burst. An event per segment, queued here with
  // consecutive sequence numbers, would let nothing run between them,
  // and everything they queued would sort after the last of them: so
  // egressing the segments back to back in one event keeps every order.
  sim_.schedule_at(at, [this, n] {
    for (std::size_t i = 0; i < n; ++i) {
      net::PacketBuf frame = std::move(tx_queue_.front());
      tx_queue_.pop_front();
      cfg_.ns->egress(std::move(frame));
    }
  });
}

sim::Duration TcpEndpoint::handle_segment(const net::TcpHeader& header,
                                          net::PacketBuf payload,
                                          sim::Time at, bool ack_now) {
  sim::Duration extra = 0;

  // --- ACK processing (sender side) ---------------------------------
  if ((header.flags & net::TcpFlags::kAck) != 0 &&
      seq_gt(header.ack, snd_una_)) {
    const std::uint32_t acked = header.ack - snd_una_;
    snd_head_ += std::min<std::size_t>(acked, unacked_bytes());
    if (snd_head_ == snd_buf_.size()) {
      snd_buf_.clear();
      snd_head_ = 0;
      snd_commit_ = 0;
    } else if (2 * snd_head_ > snd_buf_.size()) {
      snd_buf_.erase(snd_buf_.begin(),
                     snd_buf_.begin() +
                         static_cast<std::ptrdiff_t>(snd_head_));
      snd_commit_ -= snd_head_;
      snd_head_ = 0;
    }
    snd_una_ = header.ack;
    // Restart (or stop) the retransmission timer.
    rto_deadline_ = -1;
    arm_rto();
  }

  // --- data processing (receiver side) --------------------------------
  if (!payload.empty()) {
    const std::uint32_t seq = header.seq;
    const std::uint32_t end = seq + static_cast<std::uint32_t>(payload.size());
    if (!seq_gt(seq, rcv_nxt_) && seq_gt(end, rcv_nxt_)) {
      // In order: trim what the stream already holds, then join the
      // stored segments this one reaches. Those the stream has passed
      // are dropped; one that reaches further gives its unseen tail.
      payload.pop_front(rcv_nxt_ - seq);
      rcv_nxt_ = end;
      std::size_t tail = 0;
      auto it = ooo_.begin();
      for (std::uint32_t next = rcv_nxt_;
           it != ooo_.end() && !seq_gt(it->first, next); ++it) {
        const std::uint32_t o_end =
            it->first + static_cast<std::uint32_t>(it->second.size());
        if (seq_gt(o_end, next)) {
          tail += o_end - next;
          next = o_end;
        }
      }
      if (tail > 0) {
        // Joining copies: the chunk moves to one block sized for the
        // now-contiguous tail too.
        payload = net::PacketBuf::with_headroom(0, payload.bytes(), tail);
        for (auto o = ooo_.begin(); o != it; ++o) {
          const std::uint32_t o_end =
              o->first + static_cast<std::uint32_t>(o->second.size());
          if (seq_gt(o_end, rcv_nxt_)) {
            payload.append(o->second.bytes().subspan(rcv_nxt_ - o->first));
            rcv_nxt_ = o_end;
          }
        }
      }
      ooo_.erase(ooo_.begin(), it);
      delivered_ += payload.size();
      if (on_data) {
        // The block returns to the pool when the event is destroyed:
        // after on_data has run, or unrun at teardown.
        sim_.schedule_at(at, [this, chunk = std::move(payload), at] {
          on_data(chunk.bytes(), at);
        });
      }  // else the chunk's block returns to the pool here
    } else if (seq_gt(seq, rcv_nxt_)) {
      // Out of order: hold the block; of two segments starting at one
      // sequence number, keep the longer.
      const std::size_t len = payload.size();
      auto [o, fresh] = ooo_.try_emplace(seq, std::move(payload));
      if (!fresh && o->second.size() < len) o->second = std::move(payload);
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
                 std::span<const std::uint8_t>(snd_buf_.data() + snd_head_,
                                               window),
                 sim_.now());
  arm_rto();
}

}  // namespace prism::kernel
