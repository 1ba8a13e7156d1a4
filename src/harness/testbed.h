// The paper's experimental testbed, in simulation.
//
// Two machines connected point-to-point (paper §V-A): a "client" that
// generates traffic and a "server" under test. The server directs all
// network processing to a single core (one NIC queue -> CPU 0) and runs
// applications on separate cores; the client spreads its own reception
// across queues so it is never the bottleneck. One VXLAN overlay spans
// both hosts for container workloads.
//
// Both hosts and the wire share one Simulator. client_sim() and
// server_sim() both return it; callers still name the host whose state a
// callback touches. A Testbed run alone advances through run_until() on
// the caller's thread; a Cluster (harness/cluster.h) is P Testbeds and
// runs their Simulators on its lane engine's workers instead.
#pragma once

#include <cstdint>
#include <string>

#include "kernel/host.h"
#include "nic/wire.h"
#include "overlay/overlay_network.h"
#include "sim/simulator.h"

namespace prism::harness {

/// Testbed parameters. Defaults mirror the paper's setup.
struct TestbedConfig {
  kernel::CostModel cost;                ///< shared by both hosts
  kernel::NapiMode mode = kernel::NapiMode::kVanilla;
  int server_cpus = 4;                   ///< CPU 0: packet processing
  /// RPS on the server's bridge->veth boundary (empty = off, as in the
  /// paper's single-core setup).
  std::vector<int> server_rps_cpus;
  int client_cpus = 6;
  int client_queues = 4;                 ///< client-side RSS
  std::size_t nic_ring_capacity = 4096;
  /// Adaptive-style interrupt moderation, as on the paper's ConnectX-5.
  nic::CoalesceConfig coalesce{sim::microseconds(50), 64};
  double wire_gbps = 100.0;
  sim::Duration propagation = sim::nanoseconds(500);
  std::uint32_t vni = 42;
  /// Fault injection on the server under test (default: inactive). The
  /// client stays fault-free so generated load is exactly what was asked
  /// for; stress scenarios that need client-side faults can call
  /// client().configure_faults() directly.
  fault::FaultConfig server_faults;
  /// Server-side backlog limit (netdev_max_backlog; soak scenarios lower
  /// it so watermarks are reachable at simulated rates). The client keeps
  /// the kernel default.
  std::size_t server_netdev_max_backlog = 1000;
  /// Overload control on the server under test (watermarks, flow_limit,
  /// watchdog; kernel/overload.h).
  kernel::OverloadConfig server_overload;
  /// Overlay flow cache (ONCache-style stage-1 fast path) on both hosts.
  /// Off by default so baselines measure the full pipeline.
  bool flow_cache = false;
  /// Read by nothing: a Testbed runs on the caller's thread, and a
  /// Cluster takes its thread count from run_until(). Kept because
  /// perfbench sets it.
  int threads = 1;
};

/// Two hosts, a wire, and one overlay network.
class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config = TestbedConfig{});

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// The testbed's one event queue, shared by both hosts and the wire.
  sim::Simulator& sim() noexcept { return sim_; }

  /// The Simulator the client/server host schedules on: both are sim().
  sim::Simulator& client_sim() noexcept { return sim_; }
  sim::Simulator& server_sim() noexcept { return sim_; }

  /// Advances the testbed to `deadline` on the caller's thread. A
  /// Cluster's pairs advance through Cluster::run_until() instead.
  void run_until(sim::Time deadline) { sim_.run_until(deadline); }

  kernel::Host& client() noexcept { return client_; }
  kernel::Host& server() noexcept { return server_; }
  overlay::OverlayNetwork& overlay() noexcept { return overlay_; }
  nic::Wire& wire() noexcept { return wire_; }

  /// Adds a container on the client/server host. Container IPs are
  /// auto-assigned in 172.17.0.0/16.
  overlay::Netns& add_client_container(const std::string& name);
  overlay::Netns& add_server_container(const std::string& name);

  /// Sets the NAPI mode on both hosts (engines must be idle).
  void set_mode(kernel::NapiMode mode);

  /// The server's packet-processing core (all RX lands here).
  kernel::Cpu& server_rx_cpu() {
    return server_.cpu(server_.default_rx_cpu());
  }

  /// Attaches one shared span tracer to both hosts: server CPUs on
  /// tracks [0, server_cpus), client CPUs on the tracks after them, so
  /// one exported trace shows every core of the testbed as its own row.
  /// Both hosts run on one thread, so they can share the tracer.
  void attach_span_tracer(telemetry::SpanTracer& tracer) {
    server_.set_span_tracer(&tracer, 0);
    client_.set_span_tracer(&tracer, server_.num_cpus());
  }

 private:
  sim::Simulator sim_;
  kernel::Host client_;
  kernel::Host server_;
  nic::Wire wire_;
  overlay::OverlayNetwork overlay_;
  std::uint8_t next_container_ip_ = 2;
};

}  // namespace prism::harness
