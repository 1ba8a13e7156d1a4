// Minimal TCP endpoint for the simulated stack.
//
// The paper's TCP workloads (sockperf TCP throughput with 64 KB messages,
// single-connection HTTP) run over a reliable point-to-point link with
// adequate buffering, so congestion control never engages. This endpoint
// implements what those workloads exercise:
//
//   * MSS segmentation of large sends, with TSO cost semantics (the first
//     segment pays full egress cost, subsequent segments a small
//     per-segment cost) — this is the "64 KB packets fragmented into
//     MTU-sized packets by the egress kernel stack" of the paper's Fig. 13
//     workload;
//   * cumulative ACKs, generated per delivered skb (one ACK per GRO
//     super-skb, as with real GRO + delayed ACK);
//   * in-order delivery with out-of-order buffering and
//     retransmission-on-timeout, so packet drops under overload do not
//     wedge the stream.
//
// Each per-segment job happens once. A send copies the caller's bytes
// into the send buffer at the call (tcp_sendmsg's one copy), and its
// chunk's end commits them: the segments are built then and leave the
// host in one egress event, in sequence order. An in-order segment's
// frame block becomes the delivered chunk, trimmed in place to the
// payload; only joining an out-of-order tail copies.
//
// Connections are created established (the testbed wires both ends); the
// three-way handshake is out of scope and documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "kernel/cost_model.h"
#include "kernel/cpu.h"
#include "net/flow.h"
#include "net/packet.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace prism::overlay {
class Netns;
}

namespace prism::kernel {

/// One side of an established TCP connection.
class TcpEndpoint {
 public:
  struct Config {
    overlay::Netns* ns = nullptr;  ///< local namespace (owns egress)
    net::Ipv4Addr local_ip;
    net::Ipv4Addr remote_ip;
    std::uint16_t local_port = 0;
    std::uint16_t remote_port = 0;
    /// Payload bytes per segment. Container overlay paths use a reduced
    /// MSS because of the 50-byte VXLAN overhead (Docker sets MTU 1450).
    std::size_t mss = 1400;
    sim::Duration rto = sim::milliseconds(10);
  };

  TcpEndpoint(sim::Simulator& sim, const CostModel& cost, Config config);

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  /// The flow as it appears in frames *arriving* at this endpoint — the
  /// SocketTable registration key.
  net::FiveTuple incoming_flow() const noexcept;

  // ------------------------------------------------------- application

  /// Sends `data` on the stream, charging syscall/copy/egress costs to
  /// `cpu`. The bytes are copied into the send buffer at the call, so
  /// `data` may be rewritten at once. The send's chunk commits them at its
  /// end: snd_nxt moves past them, their segments are built and leave the
  /// host back to back, and the retransmission timer is armed. Only
  /// committed bytes are sent, acked or counted by unacked_bytes(). All
  /// sends of an endpoint go through one core, whose FIFO task queue
  /// commits them in call order (asserted).
  void send(std::span<const std::uint8_t> data, Cpu& cpu);

  /// In-order stream delivery. Called at the socket-arrival instant of
  /// each delivered chunk.
  std::function<void(std::span<const std::uint8_t> data, sim::Time at)>
      on_data;

  // ------------------------------------------------------------ kernel

  /// Processes one arriving segment at instant `at` (called by the
  /// reception pipeline's socket-delivery step). `payload` holds the
  /// segment's payload: the frame's own block, trimmed in place. An
  /// in-order segment's block becomes the delivered chunk; bytes the
  /// stream already holds are trimmed off first, and stored out-of-order
  /// segments it reaches are joined behind it (tcp_data_queue). Returns
  /// extra in-kernel cost incurred (ACK transmission). `ack_now` is false
  /// for the non-final frames of a GRO train, so one ACK covers the whole
  /// merge (GRO + delayed-ACK behaviour).
  sim::Duration handle_segment(const net::TcpHeader& header,
                               net::PacketBuf payload, sim::Time at,
                               bool ack_now = true);

  // ------------------------------------------------------ diagnostics

  std::uint32_t snd_nxt() const noexcept { return snd_nxt_; }
  std::uint32_t snd_una() const noexcept { return snd_una_; }
  std::uint32_t rcv_nxt() const noexcept { return rcv_nxt_; }
  std::uint64_t bytes_delivered() const noexcept { return delivered_; }
  std::uint64_t retransmissions() const noexcept { return retransmits_; }
  std::uint64_t acks_sent() const noexcept { return acks_sent_; }
  /// Committed bytes not yet acknowledged.
  std::size_t unacked_bytes() const noexcept {
    return snd_commit_ - snd_head_;
  }
  /// Out-of-order segments held for reassembly. Every one starts beyond
  /// rcv_nxt(), so a stream that has delivered everything holds none.
  std::size_t ooo_segments() const noexcept { return ooo_.size(); }

 private:
  /// Builds the segments of `data` (stream bytes from `from_seq`) and
  /// queues one event at `at` that egresses them all, in sequence order.
  void transmit_range(std::uint32_t from_seq,
                      std::span<const std::uint8_t> data, sim::Time at);
  void send_ack(sim::Time at);
  /// Starts the retransmission timer (deadline now + rto) unless it runs
  /// already or nothing is unacked.
  void arm_rto();
  /// Queues the one timer event at `at`.
  void queue_rto_timer(sim::Time at);
  /// The timer event: re-queues itself at a deadline that an ACK moved
  /// later, and retransmits once the deadline is reached.
  void on_rto();
  net::PacketBuf build_segment(std::uint32_t seq,
                               std::span<const std::uint8_t> payload,
                               bool push) const;
  /// Wrap-safe sequence comparison: a > b.
  static bool seq_gt(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::int32_t>(a - b) > 0;
  }

  sim::Simulator& sim_;
  const CostModel& cost_;
  Config cfg_;

  // Sender state.
  std::uint32_t snd_nxt_ = 1;
  std::uint32_t snd_una_ = 1;
  /// The send buffer. [snd_head_, snd_commit_) holds the committed,
  /// unacked bytes (from snd_una_); the bytes behind snd_commit_ are
  /// staged by sends whose chunks have not ended. ACKs advance the head,
  /// and the acked prefix is cut off once it is more than half the
  /// buffer.
  std::vector<std::uint8_t> snd_buf_;
  std::size_t snd_head_ = 0;
  std::size_t snd_commit_ = 0;
  /// Built segments awaiting their burst's egress event. Bursts are
  /// queued at the instant they are built, so their events run in queue
  /// order and each takes its own segments from the front.
  sim::Ring<net::PacketBuf> tx_queue_;
  /// Retransmission deadline, -1 while the timer is stopped. As with
  /// Linux's mod_timer(), an ACK moves the deadline instead of queueing
  /// another timer event; at most one event is queued (rto_queued_).
  sim::Time rto_deadline_ = -1;
  bool rto_queued_ = false;

  // Receiver state.
  std::uint32_t rcv_nxt_ = 1;
  /// Out-of-order segments by sequence number, each the payload block
  /// it arrived in.
  std::map<std::uint32_t, net::PacketBuf> ooo_;

  std::uint64_t delivered_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acks_sent_ = 0;
};

}  // namespace prism::kernel
