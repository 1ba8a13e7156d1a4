// Sockets: the kernel/user boundary of the simulated stack.
//
// A UdpSocket owns the receive buffer the reception pipeline's last stage
// enqueues into; applications drain it and get edge notifications, paying
// syscall and copy costs on their own CPU. A SocketTable is the per-netns
// demux (one per host root namespace and per container).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "kernel/probe.h"
#include "kernel/skb.h"
#include "net/flow.h"
#include "net/ip.h"
#include "sim/pool.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"

namespace prism::kernel {

class TcpEndpoint;

/// One received datagram as seen above the socket layer.
///
/// The payload's storage is recycled through sim::BufferPool when the
/// datagram is destroyed, so the deliver -> recv -> drop cycle of the
/// steady state reuses one heap block per in-flight datagram.
///
/// Size budget: 112 bytes. UdpSocket::enqueue defers the datagram to its
/// socket-arrival instant in an event capturing [this, d], which must fit
/// sim::EventFn's 120-byte inline buffer (socket.cpp asserts it). The
/// instant the datagram entered the socket buffer is ts.socket_enqueue.
struct Datagram {
  net::Ipv4Addr src_ip;
  std::uint16_t src_port = 0;
  std::vector<std::uint8_t> payload;
  bool high_priority = false;  ///< PRISM classification (diagnostic)
  int priority = 0;            ///< PRISM priority level (diagnostic)
  SkbTimestamps ts;            ///< pipeline timestamps, socket_enqueue
                               ///< included (set by the caller)

  Datagram() = default;
  Datagram(const Datagram&) = default;
  Datagram& operator=(const Datagram&) = default;
  Datagram(Datagram&&) = default;
  Datagram& operator=(Datagram&&) = default;
  ~Datagram() { sim::BufferPool::instance().release(std::move(payload)); }
};

/// UDP socket with a bounded receive buffer.
class UdpSocket {
 public:
  UdpSocket(sim::Simulator& sim, std::uint16_t port,
            std::size_t capacity = 4096);

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Application-side: notification on every enqueue. The callback runs at
  /// the datagram's socket-arrival instant; the application is expected to
  /// charge its own wakeup/syscall costs.
  void set_on_readable(std::function<void()> cb) {
    on_readable_ = std::move(cb);
  }

  /// Application-side: dequeue the oldest datagram, nullopt when empty.
  std::optional<Datagram> try_recv();

  std::size_t queue_depth() const noexcept { return queue_.size(); }
  bool has_data() const noexcept { return !queue_.empty(); }

  /// Kernel-side: enqueue at simulated instant `at` (>= now). Datagrams
  /// beyond the buffer capacity are dropped and counted, as the kernel
  /// does when applications fall behind.
  void enqueue(Datagram d, sim::Time at);

  std::uint64_t received() const noexcept { return received_.value(); }
  std::uint64_t dropped() const noexcept { return dropped_.value(); }

  /// Closes the socket: purges queued datagrams (their payload storage
  /// recycles through the BufferPool) and refuses every later enqueue as
  /// a counted kDeadNetns drop. Called when the owning namespace finishes
  /// draining; received() is frozen from this instant.
  void close();
  bool closed() const noexcept { return closed_; }

  /// Registers receive-buffer counters under `prefix`. Several sockets
  /// may share one prefix (aggregate rcvbuf accounting per host).
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix) {
    reg.add(prefix + "rcvbuf_enqueued", received_);
    reg.add(prefix + "rcvbuf_drops", dropped_);
    reg.add(prefix + "rcvbuf_depth", depth_);
  }

  /// Attaches the host's packet probe: each try_recv reports the
  /// datagram's socket-buffer residence (enqueue -> recv), and rcvbuf
  /// overflows and closed-socket arrivals report as drops.
  void set_probe(const PacketProbe* probe) noexcept { probe_ = probe; }

 private:
  sim::Simulator& sim_;
  std::uint16_t port_;
  std::size_t capacity_;
  sim::Ring<Datagram> queue_;
  std::function<void()> on_readable_;
  bool closed_ = false;
  const PacketProbe* probe_ = &PacketProbe::detached();
  telemetry::Counter received_;
  telemetry::Counter dropped_;
  telemetry::Gauge depth_;
};

/// Per-namespace socket demultiplexer.
class SocketTable {
 public:
  /// Binds a UDP socket; throws std::logic_error if the port is taken.
  void bind_udp(UdpSocket& sock);
  void unbind_udp(std::uint16_t port);
  UdpSocket* lookup_udp(std::uint16_t port);

  /// Closes every bound UDP socket (namespace teardown). The closed
  /// sockets stay in the demux as tombstones: applications and deferred
  /// enqueues may still hold pointers, and a closed socket turns every
  /// arrival into a counted dead-netns drop.
  void close_all_udp();

  std::size_t udp_count() const noexcept { return udp_.size(); }

  /// Registers a TCP endpoint under the flow as seen in *incoming*
  /// frames: (remote -> local). Throws std::logic_error on duplicates.
  void register_tcp(const net::FiveTuple& incoming_flow, TcpEndpoint& ep);
  void unregister_tcp(const net::FiveTuple& incoming_flow);
  TcpEndpoint* lookup_tcp(const net::FiveTuple& incoming_flow);

 private:
  std::unordered_map<std::uint16_t, UdpSocket*> udp_;
  std::unordered_map<net::FiveTuple, TcpEndpoint*> tcp_;
};

}  // namespace prism::kernel
