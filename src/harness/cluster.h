// Multi-pair testbed for parallel simulation: P client/server pairs,
// one event lane per pair.
//
// The paper's testbed is one client/server pair on one wire; Cluster
// replicates that pair P times (2P hosts). Each pair is a Testbed built
// from the same TestbedConfig, with its own wire and VXLAN overlay, so
// pairs repeat each other's host names, addresses and VNI but never
// exchange a frame. Pair p's Simulator is lane p of the lane engine
// (sim/lane.h), and a P-pair cluster runs on up to P real threads, one
// pair at a time per thread. Nothing synchronizes the pairs until
// run_until() returns.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/testbed.h"
#include "sim/lane.h"

namespace prism::sim {
class LaneProfiler;
}
namespace prism::telemetry {
class SpanTracer;
}

namespace prism::harness {

/// Cluster parameters: every pair is a Testbed built from the inherited
/// fields.
struct ClusterConfig : TestbedConfig {
  int pairs = 2;  ///< client/server pairs, at least 1; one lane each
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

  /// Pair `p`: a Testbed whose Simulator is lane p.
  Testbed& pair(int p) { return *pairs_.at(static_cast<std::size_t>(p)); }

  kernel::Host& client(int p) { return pair(p).client(); }
  kernel::Host& server(int p) { return pair(p).server(); }
  sim::Simulator& client_sim(int p) { return pair(p).client_sim(); }
  sim::Simulator& server_sim(int p) { return pair(p).server_sim(); }
  overlay::Netns& add_client_container(int p, const std::string& name) {
    return pair(p).add_client_container(name);
  }
  overlay::Netns& add_server_container(int p, const std::string& name) {
    return pair(p).add_server_container(name);
  }

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
  std::string cluster_json();

  /// Declared before lanes_, so the lane engine's helper threads are
  /// joined before any pair's Simulator is destroyed.
  std::vector<std::unique_ptr<Testbed>> pairs_;
  sim::LaneSet lanes_;
  /// Owned by the cluster, attached to lanes_ (which only borrows it);
  /// declared after lanes_ yet destroyed first, so the dtor detaches it
  /// before the engine goes away.
  std::unique_ptr<sim::LaneProfiler> profiler_;
};

}  // namespace prism::harness
