#include "kernel/socket.h"

#include <stdexcept>
#include <utility>

#include "fault/fault.h"

namespace prism::kernel {

UdpSocket::UdpSocket(sim::Simulator& sim, std::uint16_t port,
                     std::size_t capacity)
    : sim_(sim), port_(port), capacity_(capacity) {}

std::optional<Datagram> UdpSocket::try_recv() {
  if (queue_.empty()) return std::nullopt;
  Datagram d = std::move(queue_.front());
  queue_.pop_front();
  probe_->socket_wait(sim_.now() - d.ts.socket_enqueue, d.priority);
  return d;
}

void UdpSocket::enqueue(Datagram d, sim::Time at) {
  // The state change must occur at the packet's simulated completion
  // instant, not at the (earlier) instant the poll chunk computed it.
  // The closure carries the whole datagram; EventFn has no heap
  // fallback, so it must fit the inline buffer.
  static_assert(sizeof(Datagram) + sizeof(UdpSocket*) <=
                    sim::EventFn::kInlineCapacity,
                "Datagram outgrew its 112-byte budget");
  sim_.schedule_at(at, [this, d = std::move(d)]() mutable {
    if (closed_) {
      // The namespace finished draining before this in-flight datagram
      // landed: account it as a dead-netns drop, never as a delivery.
      probe_->drop(fault::DropReason::kDeadNetns, d.priority);
      return;
    }
    if (queue_.size() >= capacity_) {
      dropped_.inc();
      probe_->drop(fault::DropReason::kRcvbufFull, d.priority);
      // Returning destroys the datagram, recycling its frame block
      // through the BufferPool.
      return;
    }
    received_.inc();
    queue_.push_back(std::move(d));
    depth_.set(static_cast<std::int64_t>(queue_.size()));
    if (on_readable_) on_readable_();
  });
}

void UdpSocket::close() {
  if (closed_) return;
  closed_ = true;
  queue_.clear();  // datagram dtors recycle their frame blocks
  depth_.set(0);
}

void SocketTable::close_all_udp() {
  // Sockets are tombstoned, not destroyed: applications hold UdpSocket*
  // across churn, and a closed socket is inert (enqueue counts the drop,
  // try_recv sees an empty queue) — same retention rule as dead Netns.
  for (auto& [port, sock] : udp_) sock->close();
}

void SocketTable::bind_udp(UdpSocket& sock) {
  const auto [it, inserted] = udp_.emplace(sock.port(), &sock);
  (void)it;
  if (!inserted) {
    throw std::logic_error("SocketTable: UDP port already bound: " +
                           std::to_string(sock.port()));
  }
}

void SocketTable::unbind_udp(std::uint16_t port) { udp_.erase(port); }

UdpSocket* SocketTable::lookup_udp(std::uint16_t port) {
  const auto it = udp_.find(port);
  return it == udp_.end() ? nullptr : it->second;
}

void SocketTable::register_tcp(const net::FiveTuple& incoming_flow,
                               TcpEndpoint& ep) {
  const auto [it, inserted] = tcp_.emplace(incoming_flow, &ep);
  (void)it;
  if (!inserted) {
    throw std::logic_error("SocketTable: TCP flow already registered: " +
                           incoming_flow.to_string());
  }
}

void SocketTable::unregister_tcp(const net::FiveTuple& incoming_flow) {
  tcp_.erase(incoming_flow);
}

TcpEndpoint* SocketTable::lookup_tcp(const net::FiveTuple& incoming_flow) {
  const auto it = tcp_.find(incoming_flow);
  return it == tcp_.end() ? nullptr : it->second;
}

}  // namespace prism::kernel
