// The benchmark's three workloads, built through the public harness API.
//
// A Scenario is one instance of a workload: the testbed or cluster, its
// containers, priority entries and applications, started and ready to
// run. The caller drives simulated time through fixed phase boundaries
// (warm-up end, measured-window slices, drain end) and reads the
// exact counters every layer exposes, summed over every host, at each
// boundary. Nothing here reads the wall clock; timing is main.cpp's job.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.h"
#include "stats/histogram.h"

namespace prism::harness {
class Cluster;
class Testbed;
}  // namespace prism::harness
namespace prism::kernel {
class Host;
}
namespace prism::sim {
class LaneProfiler;
}

namespace perfbench {

enum class Workload { kUdpOverlay, kTcpWebVanilla, kClusterLanes };

/// Parses a workload name ("udp_overlay", ...); false when unknown.
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

/// Simulated-time layout of one scenario run.
struct Phases {
  prism::sim::Time warmup_end = 0;  ///< setup ends here
  prism::sim::Time window_end = 0;  ///< the timed, measured window
  prism::sim::Time drain_end = 0;   ///< senders stopped; in-flight lands
  /// Equal slices the measured window is timed in (throughput samples).
  int window_slices = 1;
  /// Payload bytes of one bulk-flow message (UDP datagram or TCP write).
  std::size_t bulk_payload = 0;
  /// Typical wire frame of the workload's bulk flow (for replay loops).
  std::size_t bulk_frame_payload = 0;
  bool tcp = false;
};

Phases phases_of(Workload w);

struct Options {
  std::uint64_t seed = 1;
  /// Ledger, flow table, flight recorder and anomaly bank armed, as
  /// shipped. Off is the baseline arm of telemetry.cost_frac.
  bool telemetry = true;
  int threads = 1;             ///< cluster_lanes only
  bool lane_profiler = false;  ///< cluster_lanes only
};

/// Exact counters summed over every host (and every lane) at one instant.
/// Differences of two snapshots give per-window work counts.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t lane_windows = 0;
  std::uint64_t lane_msgs = 0;
  std::uint64_t lane_spills = 0;
  /// Data-bearing packets handed to applications: UDP datagrams received
  /// by server sockets plus echoes received by clients; for TCP, frames
  /// delivered to endpoints minus pure ACKs.
  std::uint64_t app_pkts = 0;
  /// Payload bytes of the bulk flow delivered to its application.
  std::uint64_t bulk_bytes = 0;
  std::uint64_t sock_delivered = 0;  ///< frames the socket layer delivered
  std::uint64_t nic_tx = 0;
  std::uint64_t nic_rx = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t irqs = 0;
  std::uint64_t gro_merged = 0;
  std::uint64_t polls = 0;
  std::uint64_t poll_pkts = 0;
  std::uint64_t softirqs = 0;
  std::uint64_t time_squeeze = 0;
  std::uint64_t requeues = 0;
  std::uint64_t head_inserts = 0;
  std::uint64_t backlog_enq = 0;
  std::uint64_t bridge_fwd = 0;
  std::uint64_t cell_enq = 0;
  std::uint64_t fdb_drops = 0;
  std::uint64_t fc_hits = 0;
  std::uint64_t fc_misses = 0;
  std::uint64_t fc_invalidations = 0;
  std::uint64_t flight_events = 0;
  std::uint64_t ledger_deliveries = 0;
  std::uint64_t acks = 0;
  std::uint64_t tcp_retransmissions = 0;
  std::uint64_t app_msgs = 0;  ///< TCP application messages written
  std::uint64_t gen_sent = 0;
  std::uint64_t gen_skipped = 0;
  std::uint64_t rcvbuf_drops = 0;
  std::uint64_t skb_allocs = 0;  ///< SkbPool heap fall-throughs (this thread)
  std::uint64_t buf_allocs = 0;  ///< BufferPool heap fall-throughs (this thread)
  // Run-long high-water marks (gauges cannot be windowed).
  std::int64_t ring_depth_max = 0;
  std::int64_t backlog_depth_max = 0;
  std::int64_t rcvbuf_depth_max = 0;
  std::size_t pending_events = 0;  ///< event-queue depth, summed over lanes
};

/// Counts b - a for every cumulative field; gauges and depths come from b.
Counts delta(const Counts& a, const Counts& b);

/// What a scenario produced once drained.
struct Outcome {
  prism::stats::Histogram hi_latency;  ///< latency-sensitive flow, ns
  std::uint64_t hi_sent = 0;
  std::uint64_t hi_answered = 0;
  /// Per priority class: sends + retransmits + duplicates, and deliveries
  /// + ledger drops (UDP application level, exact to the datagram).
  std::array<std::uint64_t, 4> class_sent{};
  std::array<std::uint64_t, 4> class_accounted{};
  /// Frame level, over every class: frames put on the wire plus injected
  /// duplicates, and frames delivered plus ledger drops.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_accounted = 0;
  /// TCP stream level: bytes written by applications and bytes the peer
  /// endpoints delivered in order (0 for UDP workloads).
  std::uint64_t stream_bytes_written = 0;
  std::uint64_t stream_bytes_delivered = 0;
  std::uint64_t fingerprint = 0;
};

class Scenario {
 public:
  Scenario(Workload w, const Options& opt);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const Phases& phases() const noexcept { return phases_; }

  /// Advances every host to `deadline` on the configured engine.
  void run_until(prism::sim::Time deadline);

  Counts counts();
  /// Counts::app_pkts alone (cheap enough to read between slices).
  std::uint64_t app_pkts();

  /// Opens / closes the simulated RX-core utilization window on every
  /// server (call between run_until calls, at phase boundaries).
  void begin_util_window(prism::sim::Time at);
  /// Mean server RX-core utilization over [begin, at].
  double util(prism::sim::Time at);

  /// Harvests latency, conservation and the determinism fingerprint.
  /// Call after run_until(phases().drain_end).
  Outcome outcome();

  /// The lane profiler (cluster_lanes with Options::lane_profiler only).
  prism::sim::LaneProfiler* lane_profiler();
  /// Writes the profiled rounds as a Chrome trace; false on I/O error or
  /// when no profiler is attached.
  bool export_lane_trace(const std::string& path);

 private:
  struct Pair;

  void build_udp_pair(Pair& p, int index, std::uint64_t seed);
  void build_tcp_pair(Pair& p, std::uint64_t seed);
  std::vector<prism::kernel::Host*> hosts() const;
  std::uint64_t acks() const;  ///< pure ACKs sent by every TCP endpoint

  Options opt_;
  Phases phases_;
  // Engines first: destroyed after the applications that point into them.
  std::unique_ptr<prism::harness::Testbed> testbed_;
  std::unique_ptr<prism::harness::Cluster> cluster_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  /// Lane windows summed over every run_until call (LaneSet counts only
  /// its last call).
  std::uint64_t lane_windows_ = 0;
};

/// Value at quantile q: each sample is placed at its even share of its
/// HDR bucket, and the result is interpolated between the two samples
/// around rank q * (N - 1). (The histogram's own percentile() returns
/// bucket upper edges, which repeat exactly across seeds.)
double interpolated_percentile(const prism::stats::Histogram& h, double q);

}  // namespace perfbench
