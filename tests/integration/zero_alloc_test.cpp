// Zero-allocation gate: once warm, the datapath allocates nothing.
//
// This translation unit replaces every replaceable global allocation
// function of the test binary with a counting one (alloc_counter.h). Each
// case builds a udp_overlay-shaped workload — prism-sync, a class-1 probe
// beside 64 B bulk over the overlay, telemetry armed as shipped — warms
// it up past one lap of the latency ledger's window ring (whose
// per-window histograms are created lazily), then runs 100 ms of
// simulated time in one run_until call and asserts that not one heap
// allocation happened, on any thread.
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
#include "apps/sockperf.h"
#include "harness/cluster.h"
#include "harness/testbed.h"
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

/// Past one lap of the latency ledger's window ring, so every window
/// slot already holds its lazily created histograms.
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
  /// Datagrams the armed stretch must deliver at least, so a stalled
  /// run cannot pass.
  std::uint64_t min_delivered = 0;

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
                    double bulk_pps, std::uint64_t seed) {
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
  pc.stop_at = sim::seconds(10);
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
  bc.stop_at = sim::seconds(10);
  a.bulk = std::make_unique<apps::SockperfClient>(client_sim, bc);
  a.probe->start();
  a.bulk->start();
  return a;
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
  if (shape.pairs == 0) {
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
                        << " delivered datagrams";
  EXPECT_GE(stretch, shape.min_delivered);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZeroAllocTest,
    ::testing::Values(
        // perfbench udp_overlay: one Testbed, 300 kpps bulk.
        Shape{"testbed", 0, 1, 300'000.0, 25'000},
        // Two cluster_lanes pairs on two threads, 200 kpps bulk each.
        Shape{"cluster_2pairs_2threads", 2, 2, 200'000.0, 35'000}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace prism
