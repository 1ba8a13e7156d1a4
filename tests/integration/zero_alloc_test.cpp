// Zero-allocation gate: once warm, the datapath allocates nothing. Beside
// it, exact work counts on drained runs: one pooled block per wire frame,
// and a bound on events per wire frame, for UDP and for TCP; and one
// exact footprint count: the histogram buckets the warm hosts' telemetry
// holds.
//
// This translation unit replaces every replaceable global allocation
// function of the test binary with a counting one (alloc_counter.h). Each
// case builds a perfbench-shaped workload with telemetry armed as
// shipped: udp_overlay's (prism-sync, a class-1 probe beside 64 B bulk
// over the overlay) or tcp_web_vanilla's (vanilla, wrk2 beside 64 KiB TCP
// bulk over the overlay). It warms the workload up past one lap of the
// latency ledger's window ring (whose per-window histograms allocate
// their buckets lazily), then runs 100 ms of simulated time in one
// run_until call and asserts that not one heap allocation happened, on
// any thread.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "apps/http_server.h"
#include "apps/sockperf.h"
#include "harness/cluster.h"
#include "harness/testbed.h"
#include "sim/pool.h"
#include "sim/time.h"
#include "telemetry/latency.h"

// ---------------------------------------------- counting allocation

namespace {

void note_allocation() noexcept {
  if (prism::test::alloc_count_armed.load(std::memory_order_relaxed)) {
    prism::test::alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_malloc(std::size_t n) noexcept {
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t al) noexcept {
  note_allocation();
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, n == 0 ? a : (n + a - 1) / a * a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line: inlined where GCC can see the pointer came from new[], the
// free() call would draw a -Wmismatched-new-delete false positive.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted_malloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_malloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned(n, al));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

// ------------------------------------------------------------ the gate

namespace prism {
namespace {

constexpr std::uint16_t kProbePort = 11111;
constexpr std::uint16_t kBulkPort = 11112;
constexpr std::uint16_t kProbeSrcPort = 20000;
constexpr std::uint16_t kBulkSrcBase = 21000;
constexpr std::uint16_t kWebPort = 80;
constexpr std::uint16_t kWebSrcPort = 40000;
constexpr std::uint16_t kTcpBulkPort = 5201;
constexpr std::uint16_t kTcpBulkSrcPort = 41000;

/// Past one lap of the latency ledger's window ring, so every window
/// slot's histograms already hold their lazily allocated buckets.
constexpr sim::Time kWarmup =
    telemetry::LatencyLedger::kDefaultWindowInterval *
        static_cast<sim::Duration>(
            telemetry::LatencyLedger::kDefaultWindowCapacity) +
    sim::milliseconds(60);
constexpr sim::Duration kArmed = sim::milliseconds(100);

struct Shape {
  std::string name;
  int pairs = 0;  ///< 0: one Testbed; otherwise a Cluster of this many
  int threads = 1;
  double bulk_pps = 0;
  /// Datagrams (segments, for `web`) the armed stretch must deliver at
  /// least, so a stalled run cannot pass.
  std::uint64_t min_delivered = 0;
  /// The TCP web workload on one Testbed instead of the UDP flows.
  bool web = false;

  friend void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }
};

/// One client/server pair's sockperf probe and bulk flows.
struct PairApps {
  std::unique_ptr<apps::SockperfServer> probe_server;
  std::unique_ptr<apps::SockperfServer> bulk_server;
  std::unique_ptr<apps::SockperfClient> probe;
  std::unique_ptr<apps::SockperfClient> bulk;

  std::uint64_t delivered() const {
    return probe_server->received() + bulk_server->received();
  }
};

/// Adds the pair's four containers (through `add_client` and
/// `add_server`, in perfbench's order) and starts its flows.
template <typename AddClient, typename AddServer>
PairApps start_pair(kernel::Host& client, kernel::Host& server,
                    sim::Simulator& client_sim, sim::Simulator& server_sim,
                    AddClient add_client, AddServer add_server,
                    double bulk_pps, std::uint64_t seed,
                    sim::Time stop_at = sim::seconds(10)) {
  overlay::Netns& cli_probe = add_client("probe-cli");
  overlay::Netns& cli_bulk = add_client("bulk-cli");
  overlay::Netns& srv_probe = add_server("probe-srv");
  overlay::Netns& srv_bulk = add_server("bulk-srv");
  server.priority_db().add(srv_probe.ip(), kProbePort);
  client.priority_db().add(cli_probe.ip(), kProbeSrcPort);
  PairApps a;
  a.probe_server = std::make_unique<apps::SockperfServer>(
      server_sim,
      apps::SockperfServer::Config{&server, &srv_probe, &server.cpu(1),
                                   kProbePort});
  a.bulk_server = std::make_unique<apps::SockperfServer>(
      server_sim, apps::SockperfServer::Config{&server, &srv_bulk,
                                               &server.cpu(2), kBulkPort});
  apps::SockperfClient::Config pc;
  pc.host = &client;
  pc.ns = &cli_probe;
  pc.cpus = {&client.cpu(1)};
  pc.base_src_port = kProbeSrcPort;
  pc.dst_ip = srv_probe.ip();
  pc.dst_port = kProbePort;
  pc.rate_pps = 1000.0;
  pc.reply_every = 1;
  pc.seed = seed;
  pc.stop_at = stop_at;
  a.probe = std::make_unique<apps::SockperfClient>(client_sim, pc);
  apps::SockperfClient::Config bc;
  bc.host = &client;
  bc.ns = &cli_bulk;
  bc.cpus = {&client.cpu(2), &client.cpu(3)};
  bc.base_src_port = kBulkSrcBase;
  bc.dst_ip = srv_bulk.ip();
  bc.dst_port = kBulkPort;
  bc.rate_pps = bulk_pps;
  bc.burst = 64;
  bc.seed = seed + 1;
  bc.stop_at = stop_at;
  a.bulk = std::make_unique<apps::SockperfClient>(client_sim, bc);
  a.probe->start();
  a.bulk->start();
  return a;
}

/// fig13's busy workload, as perfbench's tcp_web_vanilla builds it: a
/// wrk2 client at 20k requests/s on one connection to a web server, beside
/// sockperf TCP bulk of 20k/s x 64 KiB messages that TSO splits into MTU
/// frames, both over the overlay.
struct WebApps {
  std::unique_ptr<apps::HttpServer> http;
  std::unique_ptr<apps::Wrk2Client> wrk;
  std::unique_ptr<apps::TcpSinkServer> sink;
  std::unique_ptr<apps::SockperfTcpSender> sender;
};

WebApps start_web(harness::Testbed& tb, sim::Time stop_at) {
  kernel::Host& client = tb.client();
  kernel::Host& server = tb.server();
  overlay::Netns& cli_web = tb.add_client_container("wrk");
  overlay::Netns& cli_bulk = tb.add_client_container("bulk-cli");
  overlay::Netns& srv_web = tb.add_server_container("nginx");
  overlay::Netns& srv_bulk = tb.add_server_container("bulk-srv");
  server.priority_db().add(srv_web.ip(), kWebPort);
  client.priority_db().add(cli_web.ip(), kWebSrcPort);
  kernel::TcpEndpoint& web_cli =
      client.tcp_create(cli_web, srv_web.ip(), kWebSrcPort, kWebPort);
  kernel::TcpEndpoint& web_srv =
      server.tcp_create(srv_web, cli_web.ip(), kWebPort, kWebSrcPort);
  kernel::TcpEndpoint& bulk_cli = client.tcp_create(
      cli_bulk, srv_bulk.ip(), kTcpBulkSrcPort, kTcpBulkPort);
  kernel::TcpEndpoint& bulk_srv = server.tcp_create(
      srv_bulk, cli_bulk.ip(), kTcpBulkPort, kTcpBulkSrcPort);

  WebApps a;
  apps::HttpServer::Config hc;
  hc.host = &server;
  hc.ns = &srv_web;
  hc.cpu = &server.cpu(1);
  hc.connection = &web_srv;
  a.http = std::make_unique<apps::HttpServer>(hc);
  apps::Wrk2Client::Config wc;
  wc.host = &client;
  wc.ns = &cli_web;
  wc.cpu = &client.cpu(1);
  wc.connection = &web_cli;
  wc.rate_rps = 20'000.0;
  wc.stop_at = stop_at;
  a.wrk = std::make_unique<apps::Wrk2Client>(tb.client_sim(), wc);
  a.sink = std::make_unique<apps::TcpSinkServer>(
      apps::TcpSinkServer::Config{&bulk_srv, &server.cpu(2), &server.cost()});
  apps::SockperfTcpSender::Config sc;
  sc.endpoint = &bulk_cli;
  sc.cpu = &client.cpu(2);
  sc.rate_mps = 20'000.0;
  sc.message_size = 64 * 1024;
  sc.stop_at = stop_at;
  a.sender = std::make_unique<apps::SockperfTcpSender>(tb.client_sim(), sc);
  a.wrk->start();
  a.sender->start();
  return a;
}

/// Wire frames the sockets of both hosts took in.
std::uint64_t socket_deliveries(harness::Testbed& tb) {
  return tb.client().deliverer().delivered() +
         tb.server().deliverer().delivered();
}

class ZeroAllocTest : public ::testing::TestWithParam<Shape> {};

TEST_P(ZeroAllocTest, WarmDatapathAllocatesNothing) {
  const Shape& shape = GetParam();
  // The replacement allocator is live: the counter sees an allocation.
  // (A direct operator call, which unlike a new-expression may not be
  // elided.)
  ASSERT_EQ(test::allocations_during([] {
              static void* volatile sink = nullptr;
              sink = ::operator new(16);
              ::operator delete(sink);
            }),
            1u);

  std::unique_ptr<harness::Testbed> tb;
  std::unique_ptr<harness::Cluster> cluster;
  std::vector<PairApps> flows;
  WebApps web;
  if (shape.web) {
    harness::TestbedConfig tc;
    tc.mode = kernel::NapiMode::kVanilla;
    tb = std::make_unique<harness::Testbed>(tc);
    web = start_web(*tb, sim::seconds(10));
  } else if (shape.pairs == 0) {
    harness::TestbedConfig tc;
    tc.mode = kernel::NapiMode::kPrismSync;
    tb = std::make_unique<harness::Testbed>(tc);
    flows.push_back(start_pair(
        tb->client(), tb->server(), tb->client_sim(), tb->server_sim(),
        [&](const char* name) -> overlay::Netns& {
          return tb->add_client_container(name);
        },
        [&](const char* name) -> overlay::Netns& {
          return tb->add_server_container(name);
        },
        shape.bulk_pps, 1));
  } else {
    harness::ClusterConfig cc;
    cc.pairs = shape.pairs;
    cc.mode = kernel::NapiMode::kPrismSync;
    cc.flow_cache = true;
    cluster = std::make_unique<harness::Cluster>(cc);
    for (int p = 0; p < shape.pairs; ++p) {
      flows.push_back(start_pair(
          cluster->client(p), cluster->server(p), cluster->client_sim(p),
          cluster->server_sim(p),
          [&](const char* name) -> overlay::Netns& {
            return cluster->add_client_container(p, name);
          },
          [&](const char* name) -> overlay::Netns& {
            return cluster->add_server_container(p, name);
          },
          shape.bulk_pps, 2 * static_cast<std::uint64_t>(p) + 1));
    }
  }
  const auto run_until = [&](sim::Time t) {
    if (tb) {
      tb->run_until(t);
    } else {
      cluster->run_until(t, shape.threads);
    }
  };
  const auto delivered = [&] {
    if (shape.web) return socket_deliveries(*tb);
    std::uint64_t n = 0;
    for (const PairApps& f : flows) n += f.delivered();
    return n;
  };

  run_until(kWarmup);
  const std::uint64_t before = delivered();
  const std::uint64_t allocs =
      test::allocations_during([&] { run_until(kWarmup + kArmed); });
  const std::uint64_t stretch = delivered() - before;

  EXPECT_EQ(allocs, 0u) << allocs << " heap allocations over " << stretch
                        << " delivered datagrams or segments";
  EXPECT_GE(stretch, shape.min_delivered);
  if (shape.web) {
    // The anomaly bank allocates per finding until its cap. Its default
    // detectors fire only when a class-1 packet waits 100 us at one
    // stage, which the web flow never does here; a finding in the armed
    // stretch would have shown above.
    EXPECT_EQ(tb->client().anomalies().fired_total() +
                  tb->server().anomalies().fired_total(),
              0u);
  }
}

/// The exact-count gates' workload: a prism-sync Testbed sends 300 kpps
/// bulk beside the probe for 40 ms, then drains for 20 ms with the
/// senders stopped.
PairApps run_drained(harness::Testbed& tb) {
  constexpr sim::Time kStop = sim::milliseconds(40);
  PairApps apps = start_pair(
      tb.client(), tb.server(), tb.client_sim(), tb.server_sim(),
      [&](const char* name) -> overlay::Netns& {
        return tb.add_client_container(name);
      },
      [&](const char* name) -> overlay::Netns& {
        return tb.add_server_container(name);
      },
      300'000.0, 1, kStop);
  tb.run_until(kStop + sim::milliseconds(20));
  return apps;
}

harness::TestbedConfig prism_sync() {
  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kPrismSync;
  return tc;
}

std::uint64_t wire_frames(harness::Testbed& tb) {
  return tb.client().nic().tx_frames() + tb.server().nic().tx_frames();
}

// Exact work count: every frame block the pool hands out is one frame on
// a wire, and every block comes back. One Testbed runs on one thread, so
// one BufferPool sees the whole simulation. A frame that paid for a second
// block anywhere between sender and application (a payload copy at the
// socket, say) breaks the first equation; a block that never returns
// breaks the second.
TEST(FrameBlockGateTest, OneBlockPerWireFrame) {
  const sim::PoolStats before = sim::BufferPool::instance().stats();
  harness::Testbed tb(prism_sync());
  const PairApps apps = run_drained(tb);

  const sim::PoolStats& after = sim::BufferPool::instance().stats();
  const std::uint64_t acquired = after.acquired - before.acquired;
  const std::uint64_t returned = (after.released - before.released) +
                                 (after.discarded - before.discarded);
  EXPECT_GE(apps.delivered(), 10'000u);
  EXPECT_GE(apps.probe->replies(), 30u);  // echoes cross the wire too
  EXPECT_EQ(acquired, wire_frames(tb));
  EXPECT_EQ(returned, acquired);
}

// Exact work count: events per wire frame. A Cpu chunk costs one event,
// its completion included (the send's egress, a task's callback), so the
// same run reads 5.43 events per frame; with a separate completion event
// per chunk it read 8.43.
TEST(EventGateTest, AtMostFiveAndAHalfEventsPerWireFrame) {
  harness::Testbed tb(prism_sync());
  const PairApps apps = run_drained(tb);

  const std::uint64_t events = tb.sim().events_executed();
  const std::uint64_t frames = wire_frames(tb);
  EXPECT_GE(apps.delivered(), 10'000u);
  EXPECT_LE(2 * events, 11 * frames)
      << events << " events for " << frames << " wire frames";
}

/// The TCP exact-count gates' workload: fig13's busy shape on a vanilla
/// Testbed sends for 40 ms, then drains for 20 ms with the senders
/// stopped.
WebApps run_web_drained(harness::Testbed& tb) {
  constexpr sim::Time kStop = sim::milliseconds(40);
  WebApps apps = start_web(tb, kStop);
  tb.run_until(kStop + sim::milliseconds(20));
  return apps;
}

harness::TestbedConfig vanilla() {
  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kVanilla;
  return tc;
}

// As OneBlockPerWireFrame, over TCP: a segment's block carries it from
// the segmenter to the application, whose delivered chunk is the block
// itself, trimmed to the payload. While the receiver copied each in-order
// payload into a chunk of its own, every data frame took two blocks.
TEST(FrameBlockGateTest, OneBlockPerWireFrameOverTcp) {
  const sim::PoolStats before = sim::BufferPool::instance().stats();
  harness::Testbed tb(vanilla());
  const WebApps apps = run_web_drained(tb);

  const sim::PoolStats& after = sim::BufferPool::instance().stats();
  const std::uint64_t acquired = after.acquired - before.acquired;
  const std::uint64_t returned = (after.released - before.released) +
                                 (after.discarded - before.discarded);
  EXPECT_GE(apps.sender->sent_messages(), 790u);
  EXPECT_EQ(apps.sink->bytes_received(),
            apps.sender->sent_messages() * 64 * 1024);
  EXPECT_GE(apps.wrk->completed(), 790u);
  EXPECT_EQ(acquired, wire_frames(tb));
  EXPECT_EQ(returned, acquired);
}

// Exact work count: events per wire frame on the drained TCP run. A send
// burst egresses its segments in one event, so the run reads 3.64
// (154,289 events for 42,426 frames); with one egress event per segment
// it read 4.51.
TEST(EventGateTest, AtMostFourEventsPerWireFrameOverTcp) {
  harness::Testbed tb(vanilla());
  const WebApps apps = run_web_drained(tb);

  const std::uint64_t events = tb.sim().events_executed();
  const std::uint64_t frames = wire_frames(tb);
  EXPECT_GE(apps.sender->sent_messages(), 790u);
  EXPECT_LE(events, 4 * frames)
      << events << " events for " << frames << " wire frames";
}

// Exact footprint count: the histogram buckets that both hosts' ledgers
// (stage cells and window ring) and flow tables hold once the udp_overlay
// shape is warm. A histogram holds only the octaves it has recorded, and
// every latency here stays below 2^20 ns, so the run holds 611 KiB: 26
// stage cells of 960 buckets, 192 window histograms and 4 flows of 272.
// Had every histogram held its full range (40 cells per host of 2,752
// buckets, the rest of 720), it would hold 2,822 KiB.
TEST(FootprintGateTest, WarmTelemetryBucketsStayUnderBound) {
  harness::Testbed tb(prism_sync());
  const PairApps apps = start_pair(
      tb.client(), tb.server(), tb.client_sim(), tb.server_sim(),
      [&](const char* name) -> overlay::Netns& {
        return tb.add_client_container(name);
      },
      [&](const char* name) -> overlay::Netns& {
        return tb.add_server_container(name);
      },
      300'000.0, 1);
  tb.run_until(kWarmup);

  std::size_t buckets = 0;
  for (kernel::Host* host : {&tb.client(), &tb.server()}) {
    buckets += host->latency_ledger().buckets_held();
    for (const auto* e : host->flow_table().entries()) {
      buckets += e->latency.buckets_held();
    }
  }
  const std::size_t kib = buckets * sizeof(std::uint64_t) / 1024;
  EXPECT_GE(apps.delivered(), 100'000u);
  EXPECT_LE(kib, 640u) << buckets << " buckets";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZeroAllocTest,
    ::testing::Values(
        // perfbench udp_overlay: one Testbed, 300 kpps bulk.
        Shape{"testbed", 0, 1, 300'000.0, 25'000},
        // Two cluster_lanes pairs on two threads, 200 kpps bulk each.
        Shape{"cluster_2pairs_2threads", 2, 2, 200'000.0, 35'000},
        // perfbench tcp_web_vanilla: one vanilla Testbed, wrk2 beside
        // 64 KiB TCP bulk.
        Shape{"tcp_web", 0, 1, 0, 100'000, /*web=*/true}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace prism
