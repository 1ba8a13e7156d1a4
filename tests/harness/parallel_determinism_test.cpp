// Cross-thread-count determinism of the lane engine, on the full stack:
// multi-pair clusters with fault injection and overload control active
// must produce byte-identical telemetry, fault ledgers and overload
// snapshots whether their pairs run on 1 OS thread or N, including more
// pairs than threads.
// Repeated parallel runs must also match each other — a data race that
// leaked simulation state across lanes would show up here first.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sockperf.h"
#include "harness/cluster.h"
#include "harness/testbed.h"
#include "overlay/flow_cache.h"
#include "sim/time.h"
#include "telemetry/anomaly.h"

namespace prism {
namespace {

/// Every proc surface a host exposes, discovered through
/// prism/telemetry/index instead of a hard-coded list — new surfaces are
/// covered by these determinism checks automatically.
std::string snapshot_of(kernel::Host& h) {
  std::string all;
  for (const std::string& path : h.proc().paths()) {
    all += path;
    all += '\n';
    all += h.proc().read(path);
    all += '\n';
  }
  return all;
}

struct ClusterRun {
  /// One string per host: every proc surface that renders counter state.
  std::vector<std::string> host_snapshots;
  std::vector<std::uint64_t> received;
  std::vector<std::uint64_t> replies;
  std::vector<std::uint64_t> fc_hits;  ///< per server host
  std::vector<std::uint64_t> wire_frames;  ///< per pair
  std::uint64_t events = 0;
  std::uint64_t fault_injections = 0;
};

/// `pairs` pairs (two by default: 4 hosts, 2 lanes) under asymmetric
/// load, with wire faults and a small backlog (so overload control
/// engages) on every server. `arm_detectors` additionally arms the SLO
/// and drop-burst detectors on every server, so the "prism/anomalies"
/// documents carry findings.
ClusterRun run_cluster(int threads, std::uint64_t seed,
                       bool arm_detectors = false, bool flow_cache = false,
                       int pairs = 2) {
  harness::ClusterConfig cc;
  cc.pairs = pairs;
  cc.mode = kernel::NapiMode::kPrismBatch;
  cc.flow_cache = flow_cache;
  cc.server_faults.seed = seed;
  cc.server_faults.wire_drop_rate = 0.01;
  cc.server_faults.wire_corrupt_rate = 0.005;
  cc.server_faults.wire_duplicate_rate = 0.005;
  cc.server_netdev_max_backlog = 128;
  harness::Cluster cluster(cc);
  if (arm_detectors) {
    telemetry::AnomalyConfig ac;
    ac.slo_p99_ns = sim::microseconds(150);
    ac.drop_burst_threshold = 4;
    for (int p = 0; p < cluster.pairs(); ++p) {
      cluster.server(p).anomalies().arm(ac);
    }
  }

  std::vector<std::unique_ptr<apps::SockperfServer>> servers;
  std::vector<std::unique_ptr<apps::SockperfClient>> clients;
  for (int p = 0; p < cluster.pairs(); ++p) {
    auto& cli_ns = cluster.add_client_container(p, "cli");
    auto& srv_ns = cluster.add_server_container(p, "srv");
    cluster.server(p).priority_db().add(srv_ns.ip(), 11111);
    servers.push_back(std::make_unique<apps::SockperfServer>(
        cluster.server_sim(p),
        apps::SockperfServer::Config{&cluster.server(p), &srv_ns,
                                     &cluster.server(p).cpu(1), 11111}));
    apps::SockperfClient::Config clc;
    clc.host = &cluster.client(p);
    clc.ns = &cli_ns;
    clc.cpus = {&cluster.client(p).cpu(1), &cluster.client(p).cpu(2)};
    clc.dst_ip = srv_ns.ip();
    clc.dst_port = 11111;
    clc.rate_pps = 150'000.0 + 50'000.0 * p;  // lanes advance unevenly
    clc.burst = 32;
    clc.reply_every = 4;
    clc.stop_at = sim::milliseconds(4);
    clients.push_back(
        std::make_unique<apps::SockperfClient>(cluster.client_sim(p), clc));
    clients.back()->start();
  }

  cluster.run_until(sim::milliseconds(5), threads);

  ClusterRun r;
  for (int p = 0; p < cluster.pairs(); ++p) {
    r.host_snapshots.push_back(snapshot_of(cluster.client(p)));
    r.host_snapshots.push_back(snapshot_of(cluster.server(p)));
    r.received.push_back(servers[static_cast<std::size_t>(p)]->received());
    r.replies.push_back(clients[static_cast<std::size_t>(p)]->replies());
    r.fc_hits.push_back(cluster.server(p).flow_cache().hits());
    r.wire_frames.push_back(cluster.pair(p).wire().frames_delivered());
    const auto& sc = cluster.server(p).faults().plan.counters();
    r.fault_injections +=
        sc.wire_drops + sc.wire_corrupts + sc.wire_duplicates;
    // Per-host scoping: the client hosts carry no fault plan, so no
    // injection may ever be attributed to them.
    EXPECT_FALSE(cluster.client(p).faults().plan.active());
    EXPECT_EQ(cluster.client(p).faults().plan.counters().wire_drops, 0u);
  }
  r.events = cluster.lanes().events_executed();
  return r;
}

void expect_same(const ClusterRun& a, const ClusterRun& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.wire_frames, b.wire_frames);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.replies, b.replies);
  EXPECT_EQ(a.fc_hits, b.fc_hits);
  EXPECT_EQ(a.fault_injections, b.fault_injections);
  ASSERT_EQ(a.host_snapshots.size(), b.host_snapshots.size());
  for (std::size_t i = 0; i < a.host_snapshots.size(); ++i) {
    EXPECT_EQ(a.host_snapshots[i], b.host_snapshots[i])
        << "host " << i << " snapshot diverged";
  }
}

TEST(ParallelDeterminismTest, OneThreadVsFourByteIdentical) {
  for (std::uint64_t seed : {1ull, 7ull}) {
    const ClusterRun serial = run_cluster(1, seed);
    const ClusterRun parallel = run_cluster(4, seed);
    ASSERT_GT(serial.events, 0u);
    for (std::uint64_t frames : serial.wire_frames) ASSERT_GT(frames, 0u);
    for (std::uint64_t replies : serial.replies) EXPECT_GT(replies, 0u);
    expect_same(serial, parallel);
  }
}

// The snapshots above discover surfaces through prism/telemetry/index
// rather than a hard-coded list; the flight-recorder work added
// "prism/anomalies". Assert the index actually lists it (so the
// determinism net really covers it) and that armed-detector runs — SLO
// and drop-burst detectors live, findings freezing recorder slices —
// stay byte-identical between 1 and 4 threads.
TEST(ParallelDeterminismTest, AnomalySurfaceIndexedAndDeterministicArmed) {
  {
    harness::Testbed tb{harness::TestbedConfig{}};
    const auto paths = tb.server().proc().paths();
    EXPECT_NE(std::find(paths.begin(), paths.end(), "prism/anomalies"),
              paths.end())
        << "prism/anomalies missing from prism/telemetry/index";
  }
  const ClusterRun serial = run_cluster(1, 5, /*arm_detectors=*/true);
  const ClusterRun parallel = run_cluster(4, 5, /*arm_detectors=*/true);
  for (const std::string& snap : serial.host_snapshots) {
    EXPECT_NE(snap.find("prism/anomalies"), std::string::npos);
  }
  expect_same(serial, parallel);
}

// The overlay flow cache fills on one stage and hits on another; if lane
// scheduling could reorder the fill relative to a neighbouring flow's
// probe, hit counts — and through the fast path, the whole telemetry
// surface — would diverge across thread counts. They must not.
TEST(ParallelDeterminismTest, FlowCacheOnOneVsFourByteIdentical) {
  const ClusterRun serial =
      run_cluster(1, 7, /*arm_detectors=*/false, /*flow_cache=*/true);
  const ClusterRun parallel =
      run_cluster(4, 7, /*arm_detectors=*/false, /*flow_cache=*/true);
  ASSERT_GT(serial.events, 0u);
  for (std::uint64_t hits : serial.fc_hits) EXPECT_GT(hits, 0u);
  expect_same(serial, parallel);
}

TEST(ParallelDeterminismTest, RepeatedParallelRunsIdentical) {
  const ClusterRun a = run_cluster(4, 3);
  const ClusterRun b = run_cluster(4, 3);
  expect_same(a, b);
}

TEST(ParallelDeterminismTest, DifferentSeedsDiverge) {
  // Sanity that the snapshots are sensitive enough to detect divergence:
  // different fault seeds must not compare equal.
  const ClusterRun a = run_cluster(1, 1);
  const ClusterRun b = run_cluster(1, 2);
  EXPECT_NE(a.host_snapshots, b.host_snapshots);
}

// More pairs than threads: five lanes on four workers, so at
// least one worker runs two pairs one after the other, next to workers
// that run one. The snapshots must still be byte-identical to one
// thread's.
TEST(ParallelDeterminismTest, MorePairsThanThreadsByteIdentical) {
  const ClusterRun serial = run_cluster(1, 11, /*arm_detectors=*/false,
                                        /*flow_cache=*/false, /*pairs=*/5);
  const ClusterRun parallel = run_cluster(4, 11, /*arm_detectors=*/false,
                                          /*flow_cache=*/false, /*pairs=*/5);
  ASSERT_EQ(serial.host_snapshots.size(), 10u);
  for (std::uint64_t frames : serial.wire_frames) ASSERT_GT(frames, 0u);
  for (std::uint64_t replies : serial.replies) EXPECT_GT(replies, 0u);
  expect_same(serial, parallel);
}

}  // namespace
}  // namespace prism
