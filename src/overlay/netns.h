// Network namespaces.
//
// Every host has a root namespace (its native network identity) and one
// namespace per container. A namespace bundles the identity (IP, MAC), the
// socket table packets demux into, a neighbour (ARP) table for its L2
// domain, and the egress hook the owning Host installs (native TX for the
// root namespace; veth -> bridge -> VXLAN for containers).
//
// Container namespaces have a lifecycle (kRunning -> kDraining -> kDead)
// driven by Host::stop_container. The namespace object itself is never
// freed — torn-down namespaces stay in the host's container table as
// tombstones, so any Netns* still cached in an skb, a flow-cache entry or
// a VTEP route remains a valid pointer that *observes* the dead state and
// turns the packet into a counted kDeadNetns drop, instead of a dangling
// dereference.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "kernel/socket.h"
#include "net/ip.h"
#include "net/mac.h"
#include "net/packet.h"

namespace prism::overlay {

/// Container namespace lifecycle.
///
///   kRunning  — normal operation: delivers to sockets, may transmit.
///   kDraining — teardown has begun: no new deliveries (in-flight packets
///               drop as kDeadNetns), no new transmissions; already-queued
///               datagrams may still be consumed by the application until
///               the drain deadline.
///   kDead     — teardown complete: sockets are unbound and their queues
///               purged (storage recycled). The object persists as a
///               tombstone.
enum class NetnsState : int { kRunning = 0, kDraining, kDead };

/// One network namespace (host root ns or a container ns).
class Netns {
 public:
  Netns(std::string name, net::Ipv4Addr ip, net::MacAddr mac,
        bool is_container)
      : name_(std::move(name)),
        ip_(ip),
        mac_(mac),
        is_container_(is_container) {}

  Netns(const Netns&) = delete;
  Netns& operator=(const Netns&) = delete;

  const std::string& name() const noexcept { return name_; }
  net::Ipv4Addr ip() const noexcept { return ip_; }
  net::MacAddr mac() const noexcept { return mac_; }
  bool is_container() const noexcept { return is_container_; }

  NetnsState state() const noexcept { return state_; }
  /// True while the namespace accepts deliveries and may transmit.
  /// Draining already refuses both: "stop" is the observable instant.
  bool accepting() const noexcept { return state_ == NetnsState::kRunning; }
  bool dead() const noexcept { return state_ == NetnsState::kDead; }

  /// State transitions are owned by Host::stop_container /
  /// Host::restart_container; they only ever move forward
  /// (Running -> Draining -> Dead). Restart creates a *new* namespace.
  void begin_draining() noexcept {
    if (state_ == NetnsState::kRunning) state_ = NetnsState::kDraining;
  }
  void mark_dead() noexcept { state_ = NetnsState::kDead; }

  /// VNI of the overlay this container attaches to (0 for the root ns).
  std::uint32_t vni() const noexcept { return vni_; }
  void set_vni(std::uint32_t vni) noexcept { vni_ = vni; }

  kernel::SocketTable& sockets() noexcept { return sockets_; }

  /// Static neighbour table (the testbed plays the ARP role).
  void add_neighbor(net::Ipv4Addr ip, net::MacAddr mac) {
    neighbors_[ip] = mac;
  }

  /// Resolves a destination IP in this namespace's L2 domain. A missing
  /// neighbour returns nullopt; senders turn that into a counted
  /// kUnroutable drop (no dynamic ARP in the simulator, but a wiring gap
  /// degrades to an attributable drop instead of aborting the lane).
  std::optional<net::MacAddr> neighbor(net::Ipv4Addr ip) const {
    const auto it = neighbors_.find(ip);
    if (it == neighbors_.end()) return std::nullopt;
    return it->second;
  }

  /// Egress hook, installed by the owning Host: transmits a fully built
  /// L2 frame out of this namespace. For containers this performs the
  /// overlay encapsulation.
  std::function<void(net::PacketBuf)> egress;

 private:
  std::string name_;
  net::Ipv4Addr ip_;
  net::MacAddr mac_;
  bool is_container_;
  NetnsState state_ = NetnsState::kRunning;
  std::uint32_t vni_ = 0;
  kernel::SocketTable sockets_;
  std::unordered_map<net::Ipv4Addr, net::MacAddr> neighbors_;
};

}  // namespace prism::overlay
