// Cluster-level observability: a profiled 4-host run on up to 4 threads
// must populate the "prism/lanes" and "prism/cluster" proc documents, the
// cluster roll-up must equal the sum of the per-host snapshots, the
// profiled lanes must export as per-lane Chrome-trace tracks, and
// profiling must not perturb the simulation. Also: the Cluster checks its
// pair count before it builds anything, and each of its pairs is a
// Testbed that simulates exactly as a Testbed run alone.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sockperf.h"
#include "harness/cluster.h"
#include "harness/testbed.h"
#include "sim/lane_profiler.h"
#include "sim/time.h"
#include "telemetry/json_writer.h"
#include "telemetry/metrics.h"
#include "telemetry/rollup.h"
#include "telemetry/span_tracer.h"

namespace prism {
namespace {

constexpr auto npos = std::string::npos;

struct ClusterRig {
  std::unique_ptr<harness::Cluster> cluster;
  std::vector<std::unique_ptr<apps::SockperfServer>> servers;
  std::vector<std::unique_ptr<apps::SockperfClient>> clients;

  /// Two pairs (4 hosts, 2 lanes) under asymmetric sockperf load.
  explicit ClusterRig(bool profiled) {
    harness::ClusterConfig cc;
    cc.pairs = 2;
    cc.mode = kernel::NapiMode::kPrismSync;
    cluster = std::make_unique<harness::Cluster>(cc);
    if (profiled) cluster->enable_lane_profiler();
    for (int p = 0; p < cluster->pairs(); ++p) {
      auto& cli_ns = cluster->add_client_container(p, "cli");
      auto& srv_ns = cluster->add_server_container(p, "srv");
      cluster->server(p).priority_db().add(srv_ns.ip(), 11111);
      servers.push_back(std::make_unique<apps::SockperfServer>(
          cluster->server_sim(p),
          apps::SockperfServer::Config{&cluster->server(p), &srv_ns,
                                       &cluster->server(p).cpu(1), 11111}));
      apps::SockperfClient::Config clc;
      clc.host = &cluster->client(p);
      clc.ns = &cli_ns;
      clc.cpus = {&cluster->client(p).cpu(1)};
      clc.dst_ip = srv_ns.ip();
      clc.dst_port = 11111;
      clc.rate_pps = 100'000.0 + 50'000.0 * p;  // lanes advance unevenly
      clc.reply_every = 4;
      clc.stop_at = sim::milliseconds(2);
      clients.push_back(std::make_unique<apps::SockperfClient>(
          cluster->client_sim(p), clc));
      clients.back()->start();
    }
  }

  void run(int threads) {
    cluster->run_until(sim::milliseconds(3), threads);
  }
};

TEST(ClusterObservabilityTest, LanesProcPopulatedAfterProfiledRun) {
  ClusterRig rig(/*profiled=*/true);
  rig.run(4);
  const std::string doc = rig.cluster->proc_read("prism/lanes");
  EXPECT_NE(doc.find("\"attached\":true"), npos) << doc;
  const sim::LaneProfiler* prof = rig.cluster->lane_profiler();
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->num_lanes(), 2);  // one per pair
  std::uint64_t events = 0;
  for (int i = 0; i < prof->num_lanes(); ++i) {
    EXPECT_GT(prof->lane(i).busy_ns, 0u) << "lane " << i;
    EXPECT_EQ(prof->lane(i).sim_ns, sim::milliseconds(3)) << "lane " << i;
    EXPECT_EQ(prof->lane(i).events,
              rig.cluster->client_sim(i).events_executed());
    events += prof->lane(i).events;
  }
  EXPECT_EQ(events, rig.cluster->lanes().events_executed());
  EXPECT_GE(prof->busy_imbalance(), 1.0);
  EXPECT_GE(prof->event_imbalance(), 1.0);
  EXPECT_NE(doc.find("\"lanes\":[{\"lane\":0,\"events\":"), npos) << doc;
  EXPECT_NE(doc.find("\"workers\":[{\"worker\":0,\"wall_ns\":"), npos)
      << doc;
}

TEST(ClusterObservabilityTest, ClusterRollupEqualsSumOfHostSnapshots) {
  ClusterRig rig(/*profiled=*/true);
  rig.run(4);
  harness::Cluster& c = *rig.cluster;
  const std::string doc = c.proc_read("prism/cluster");
  EXPECT_NE(doc.find("\"pairs\":2"), npos) << doc.substr(0, 200);
  EXPECT_NE(doc.find("\"hosts\":4"), npos);
  EXPECT_NE(doc.find("\"pair_summaries\":["), npos);
  EXPECT_NE(doc.find("\"engine\":{"), npos);

  // The embedded registry roll-up must be byte-identical to merging the
  // four hosts' registries directly...
  std::vector<const telemetry::Registry*> regs;
  for (int p = 0; p < c.pairs(); ++p) {
    regs.push_back(&c.client(p).metrics());
    regs.push_back(&c.server(p).metrics());
  }
  telemetry::JsonWriter w;
  telemetry::write_merged_registry_json(w, regs);
  const std::string merged = w.take();
  EXPECT_NE(doc.find(merged), npos);

  // ...and each merged counter must equal the sum over the per-host
  // registries it claims to aggregate.
  for (const auto& m : telemetry::merge_counters(regs)) {
    std::uint64_t sum = 0;
    for (const telemetry::Registry* r : regs) {
      sum += r->counter_value(m.name);
    }
    EXPECT_EQ(m.value, sum) << m.name;
  }
}

TEST(ClusterObservabilityTest, TelemetryIndexListsClusterSurfaces) {
  ClusterRig rig(/*profiled=*/false);
  const std::string idx =
      rig.cluster->proc_read("prism/telemetry/index");
  EXPECT_EQ(idx, "prism/cluster\nprism/lanes\nprism/telemetry/index\n");
  // Unknown paths read as empty, matching ProcInterface::read.
  EXPECT_EQ(rig.cluster->proc_read("prism/nonsense"), "");
  // Host-level index: every built-in plus the host's registered files.
  const std::string host_idx =
      rig.cluster->server(0).proc().read("prism/telemetry/index");
  for (const std::string& path : rig.cluster->server(0).proc().paths()) {
    EXPECT_NE(host_idx.find(path + "\n"), npos) << path;
  }
}

TEST(ClusterObservabilityTest, TraceExportCarriesLaneTracks) {
  ClusterRig rig(/*profiled=*/true);
  rig.run(4);
  telemetry::SpanTracer tracer;
  rig.cluster->export_lane_trace(tracer);
  const std::string trace = tracer.export_chrome_trace("test");
  // One busy span per lane, each on its own labelled track.
  for (int lane = 0; lane < 2; ++lane) {
    const std::string label = "lane" + std::to_string(lane);
    EXPECT_NE(trace.find(label + ".busy"), npos) << label;
  }
  EXPECT_NE(trace.find("\"name\":\"busy\""), npos);
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(ClusterObservabilityTest, ProfilingDoesNotPerturbTheSimulation) {
  ClusterRig profiled(/*profiled=*/true);
  ClusterRig plain(/*profiled=*/false);
  profiled.run(4);
  plain.run(1);
  EXPECT_EQ(profiled.cluster->lanes().events_executed(),
            plain.cluster->lanes().events_executed());
  for (int p = 0; p < plain.cluster->pairs(); ++p) {
    // Frames crossed every pair's wire, and as many on both runs.
    EXPECT_GT(plain.cluster->pair(p).wire().frames_delivered(), 0u)
        << "pair " << p;
    EXPECT_EQ(profiled.cluster->pair(p).wire().frames_delivered(),
              plain.cluster->pair(p).wire().frames_delivered())
        << "pair " << p;
  }
  for (std::size_t i = 0; i < profiled.servers.size(); ++i) {
    EXPECT_EQ(profiled.servers[i]->received(), plain.servers[i]->received());
    EXPECT_EQ(profiled.clients[i]->replies(), plain.clients[i]->replies());
  }
}

// The pair count is checked before the lanes are built, so a bad count
// reports the Cluster's own rule, not the lane engine's.
TEST(ClusterTest, PairCountCheckedBeforeLanesAreBuilt) {
  harness::ClusterConfig cc;
  for (int pairs : {0, -1}) {
    cc.pairs = pairs;
    try {
      harness::Cluster cluster(cc);
      ADD_FAILURE() << "pairs=" << pairs << " constructed";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "Cluster: pairs must be at least 1")
          << "pairs=" << pairs;
    }
  }
  cc.pairs = 1;
  harness::Cluster one(cc);
  EXPECT_EQ(one.num_hosts(), 2);
  EXPECT_EQ(one.lanes().num_lanes(), 1);
  EXPECT_EQ(&one.client_sim(0), &one.server_sim(0));
  EXPECT_EQ(&one.lanes().lane(0), &one.pair(0).sim());
}

/// A class-1 probe and a bulk sender on one pair, with the same seeds on
/// every pair it is started on.
struct PairWorkload {
  std::unique_ptr<apps::SockperfServer> probe_server;
  std::unique_ptr<apps::SockperfServer> bulk_server;
  std::unique_ptr<apps::SockperfClient> probe;
  std::unique_ptr<apps::SockperfClient> bulk;

  explicit PairWorkload(harness::Testbed& tb) {
    auto& cli_probe = tb.add_client_container("probe-cli");
    auto& cli_bulk = tb.add_client_container("bulk-cli");
    auto& srv_probe = tb.add_server_container("probe-srv");
    auto& srv_bulk = tb.add_server_container("bulk-srv");
    tb.server().priority_db().add(srv_probe.ip(), 11111);
    tb.client().priority_db().add(cli_probe.ip(), 20000);
    probe_server = std::make_unique<apps::SockperfServer>(
        tb.server_sim(),
        apps::SockperfServer::Config{&tb.server(), &srv_probe,
                                     &tb.server().cpu(1), 11111});
    bulk_server = std::make_unique<apps::SockperfServer>(
        tb.server_sim(),
        apps::SockperfServer::Config{&tb.server(), &srv_bulk,
                                     &tb.server().cpu(2), 7000});

    apps::SockperfClient::Config pc;
    pc.host = &tb.client();
    pc.ns = &cli_probe;
    pc.cpus = {&tb.client().cpu(1)};
    pc.base_src_port = 20000;
    pc.dst_ip = srv_probe.ip();
    pc.dst_port = 11111;
    pc.rate_pps = 20'000.0;
    pc.reply_every = 1;
    pc.seed = 3;
    pc.stop_at = sim::milliseconds(2);
    probe = std::make_unique<apps::SockperfClient>(tb.client_sim(), pc);

    apps::SockperfClient::Config bc;
    bc.host = &tb.client();
    bc.ns = &cli_bulk;
    bc.cpus = {&tb.client().cpu(2), &tb.client().cpu(3)};
    bc.base_src_port = 21000;
    bc.dst_ip = srv_bulk.ip();
    bc.dst_port = 7000;
    bc.rate_pps = 200'000.0;
    bc.burst = 16;
    bc.seed = 4;
    bc.stop_at = sim::milliseconds(2);
    bulk = std::make_unique<apps::SockperfClient>(tb.client_sim(), bc);

    probe->start();
    bulk->start();
  }
};

/// The proc documents of one pair that must not depend on whether it
/// runs alone or in a Cluster, and its events executed.
std::string pair_documents(harness::Testbed& tb) {
  std::string out = "events " + std::to_string(tb.sim().events_executed());
  for (kernel::Host* h : {&tb.client(), &tb.server()}) {
    for (const char* path : {"net/softnet_stat", "prism/telemetry",
                             "prism/flows", "prism/faults"}) {
      out += "\n== " + h->name() + " " + path + " ==\n";
      out += h->proc().read(path);
    }
  }
  return out;
}

// A Cluster's pair is a Testbed: built from the same TestbedConfig
// values and given the same workload, a one-pair Cluster simulates
// exactly what a Testbed run alone does, and pair 1 of a two-pair
// Cluster exactly what pair 0 does.
TEST(ClusterTest, PairIsATestbed) {
  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kPrismSync;
  tc.flow_cache = true;
  const sim::Time end = sim::milliseconds(3);

  harness::Testbed alone(tc);
  PairWorkload alone_load(alone);
  alone.run_until(end);
  const std::string expected = pair_documents(alone);
  ASSERT_GT(alone_load.probe->replies(), 0u);
  ASSERT_GT(alone_load.bulk_server->received(), 0u);

  harness::ClusterConfig one_cc;
  static_cast<harness::TestbedConfig&>(one_cc) = tc;
  one_cc.pairs = 1;
  harness::Cluster one(one_cc);
  PairWorkload one_load(one.pair(0));
  one.run_until(end);
  EXPECT_EQ(pair_documents(one.pair(0)), expected);

  harness::ClusterConfig two_cc = one_cc;
  two_cc.pairs = 2;
  harness::Cluster two(two_cc);
  PairWorkload load0(two.pair(0));
  PairWorkload load1(two.pair(1));
  two.run_until(end, 2);
  EXPECT_EQ(pair_documents(two.pair(0)), expected);
  EXPECT_EQ(pair_documents(two.pair(1)), expected);
}

}  // namespace
}  // namespace prism
