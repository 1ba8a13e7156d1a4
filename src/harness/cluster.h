// Multi-pair testbed for parallel simulation: N client/server pairs, one
// event lane per pair.
//
// The paper's testbed is one client/server pair on one wire; Cluster
// replicates that pair P times (2P hosts). Each pair gets its own wire,
// VXLAN overlay (distinct VNI), and address range, so pairs never
// exchange a frame: pair p's two hosts and its wire share lane p of the
// lane engine (sim/lane.h), one Simulator, and a P-pair cluster runs on
// up to P real threads, one pair at a time per thread. Nothing
// synchronizes the pairs until run_until() returns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/host.h"
#include "nic/wire.h"
#include "overlay/overlay_network.h"
#include "sim/lane.h"

namespace prism::sim {
class LaneProfiler;
}
namespace prism::telemetry {
class SpanTracer;
}

namespace prism::harness {

/// Cluster parameters. Per-pair defaults mirror TestbedConfig.
struct ClusterConfig {
  int pairs = 2;  ///< client/server pairs in [1, 127]; one lane each
  kernel::NapiMode mode = kernel::NapiMode::kVanilla;
  kernel::CostModel cost;
  int client_cpus = 4;
  int server_cpus = 4;
  int client_queues = 4;  ///< client-side RSS
  std::size_t nic_ring_capacity = 4096;
  nic::CoalesceConfig coalesce{sim::microseconds(50), 64};
  double wire_gbps = 100.0;
  sim::Duration propagation = sim::nanoseconds(500);
  /// Fault injection on every server host (default inactive); clients
  /// stay fault-free, as in TestbedConfig. Each server owns an
  /// independent FaultLayer seeded from this config, so faults on pair i
  /// never perturb pair j.
  fault::FaultConfig server_faults;
  /// Overload control + backlog sizing on every server host.
  kernel::OverloadConfig server_overload;
  std::size_t server_netdev_max_backlog = 1000;
  /// Overlay flow cache (ONCache-style stage-1 fast path) on every host.
  bool flow_cache = false;
};

/// P client/server pairs, 2P hosts, P lanes.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config = ClusterConfig{});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int pairs() const noexcept { return static_cast<int>(pairs_.size()); }
  int num_hosts() const noexcept { return 2 * pairs(); }

  sim::LaneSet& lanes() noexcept { return lanes_; }

  kernel::Host& client(int pair) { return *pairs_.at(pair).client; }
  kernel::Host& server(int pair) { return *pairs_.at(pair).server; }
  nic::Wire& wire(int pair) { return *pairs_.at(pair).wire; }
  overlay::OverlayNetwork& overlay(int pair) {
    return *pairs_.at(pair).overlay;
  }

  /// The Simulator pair `pair`'s client/server host schedules on: both
  /// are lane `pair`.
  sim::Simulator& client_sim(int pair) { return lanes_.lane(pair); }
  sim::Simulator& server_sim(int pair) { return lanes_.lane(pair); }

  /// Adds a container on pair `pair`'s client/server host, attached to
  /// that pair's overlay. Container IPs auto-assign in 172.17.<pair>.0/24.
  overlay::Netns& add_client_container(int pair, const std::string& name);
  overlay::Netns& add_server_container(int pair, const std::string& name);

  /// Advances every lane to `deadline`, running the pairs on up to
  /// `threads` OS threads (one pair at a time per thread). Deterministic
  /// for any thread count.
  void run_until(sim::Time deadline, int threads = 1) {
    lanes_.run_until(deadline, threads);
  }

  // ---------------------------------------------------------- observability
  /// Creates (or returns) the cluster's lane profiler and attaches it to
  /// the lane engine; subsequent run_until calls are profiled. The
  /// profiler never alters the schedule, so profiled runs stay
  /// byte-identical to unprofiled ones.
  sim::LaneProfiler& enable_lane_profiler();
  /// nullptr until enable_lane_profiler() is called.
  sim::LaneProfiler* lane_profiler() noexcept { return profiler_.get(); }

  /// Writes the profiled per-lane totals into `tracer`
  /// (telemetry::export_lane_trace): one busy span per lane, lane i on
  /// track i. No-op until the profiler is enabled.
  void export_lane_trace(telemetry::SpanTracer& tracer) const;

  /// Cluster-level proc files (the fleet view over the per-host
  /// proc() interfaces):
  ///   prism/lanes           — lane profiler document (telemetry JSON)
  ///   prism/cluster         — fleet roll-up: merged registries, merged
  ///                           latency histograms, per-pair drop and
  ///                           overload summaries, lane-engine totals
  ///   prism/telemetry/index — these paths, one per line, sorted
  /// Unknown paths read as "" like ProcInterface::read.
  std::string proc_read(std::string_view path);
  std::vector<std::string> proc_paths() const;

 private:
  struct Pair {
    std::unique_ptr<kernel::Host> client;
    std::unique_ptr<kernel::Host> server;
    std::unique_ptr<nic::Wire> wire;
    std::unique_ptr<overlay::OverlayNetwork> overlay;
    std::uint8_t next_container_ip = 2;
  };

  std::string cluster_json();

  sim::LaneSet lanes_;
  std::vector<Pair> pairs_;
  /// Owned by the cluster, attached to lanes_ (which only borrows it);
  /// declared after lanes_ yet destroyed first, so the dtor detaches it
  /// before the engine goes away.
  std::unique_ptr<sim::LaneProfiler> profiler_;
};

}  // namespace prism::harness
