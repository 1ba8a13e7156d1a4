// Container lifecycle: teardown/restart/migrate state machine, socket
// tombstones, counted dead-netns and unroutable drops, unlearned-FDB
// misses, flow-cache invalidation under teardown/delivery interleavings
// (the ASan target: a cached Netns* of a torn-down container must be
// observed dead, never dereferenced dangling), and app-level retry
// resilience in sockperf/memaslap.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "apps/memaslap.h"
#include "apps/memcached.h"
#include "apps/sockperf.h"
#include "fault/fault.h"
#include "harness/testbed.h"
#include "kernel/socket.h"
#include "overlay/netns.h"

namespace prism::kernel {
namespace {

using fault::DropReason;

std::vector<std::uint8_t> payload(std::size_t n = 32) {
  return std::vector<std::uint8_t>(n, 0xab);
}

/// Runs the testbed a simulated second past its clock — past the last
/// send and drain deadline of every test here — and checks it drained.
void drain(harness::Testbed& tb) {
  tb.run_until(tb.client_sim().now() + sim::seconds(1));
  EXPECT_EQ(tb.sim().pending_events(), 0u);
}

TEST(ChurnLifecycleTest, StopDrainsThenDiesAndClosesSockets) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& s1 = tb.add_server_container("s1");
  UdpSocket& sock = tb.server().udp_bind(s1, 7000);

  tb.client().udp_send(c1, tb.client().cpu(1), 100, s1.ip(), 7000,
                       payload());
  drain(tb);
  EXPECT_EQ(sock.received(), 1u);

  const sim::Duration window = sim::microseconds(200);
  tb.server_sim().schedule_at(tb.server_sim().now() + 10,
                              [&] { tb.overlay().stop_container(s1, window); });
  tb.run_until(tb.server_sim().now() + 100);
  EXPECT_EQ(s1.state(), overlay::NetnsState::kDraining);
  EXPECT_FALSE(s1.accepting());
  EXPECT_FALSE(sock.closed());  // queued datagrams still drainable

  drain(tb);
  EXPECT_EQ(s1.state(), overlay::NetnsState::kDead);
  // The socket is a tombstone: closed, pointer still valid, count frozen.
  EXPECT_TRUE(sock.closed());
  EXPECT_EQ(sock.received(), 1u);
  EXPECT_FALSE(sock.try_recv().has_value());
}

TEST(ChurnLifecycleTest, InFlightPacketLandsAsCountedDeadNetnsDrop) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& s1 = tb.add_server_container("s1");
  UdpSocket& sock = tb.server().udp_bind(s1, 7000);

  // Stop the destination while the packet is still on the wire/pipeline.
  tb.client().udp_send(c1, tb.client().cpu(1), 100, s1.ip(), 7000,
                       payload());
  tb.server_sim().schedule_at(tb.server_sim().now() + 600,  // past propagation
                              [&] { tb.overlay().stop_container(s1); });
  drain(tb);

  // Depending on where teardown catches the packet it lands as a
  // dead-netns drop (past the bridge) or an FDB-miss drop (the MAC was
  // already unlearned) — either way it is counted, never lost.
  const auto& drops = tb.server().faults().drops;
  EXPECT_EQ(sock.received() + drops.total(DropReason::kDeadNetns) +
                drops.total(DropReason::kFdbMiss),
            1u)
      << "packet neither delivered nor ledgered";
  EXPECT_TRUE(s1.dead());
}

TEST(ChurnLifecycleTest, RestartKeepsIdentityAndResumesDelivery) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& s1 = tb.add_server_container("s1");
  tb.server().udp_bind(s1, 7000);
  const auto ip = s1.ip();
  const auto mac = s1.mac();
  const auto vni = s1.vni();

  tb.overlay().stop_container(s1);
  drain(tb);
  ASSERT_TRUE(s1.dead());

  overlay::Netns& fresh = tb.overlay().restart_container(s1);
  EXPECT_NE(&fresh, &s1);
  EXPECT_EQ(fresh.ip(), ip);
  EXPECT_EQ(fresh.mac(), mac);
  EXPECT_EQ(fresh.vni(), vni);
  EXPECT_TRUE(fresh.accepting());
  // Peers still resolve the reused identity.
  EXPECT_EQ(c1.neighbor(ip), mac);

  UdpSocket& sock2 = tb.server().udp_bind(fresh, 7000);
  tb.client().udp_send(c1, tb.client().cpu(1), 100, ip, 7000, payload());
  drain(tb);
  EXPECT_EQ(sock2.received(), 1u);
}

TEST(ChurnLifecycleTest, MigrationMovesDeliveryToTheOtherHost) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& s1 = tb.add_server_container("s1");
  UdpSocket& old_sock = tb.server().udp_bind(s1, 7000);
  const auto ip = s1.ip();

  tb.client().udp_send(c1, tb.client().cpu(1), 100, ip, 7000, payload());
  drain(tb);
  ASSERT_EQ(old_sock.received(), 1u);

  overlay::Netns& fresh =
      tb.overlay().migrate_container(s1, tb.client());
  EXPECT_EQ(&tb.overlay().host_of(fresh), &tb.client());
  UdpSocket& new_sock = tb.client().udp_bind(fresh, 7000);

  tb.client().udp_send(c1, tb.client().cpu(1), 100, ip, 7000, payload());
  drain(tb);
  EXPECT_EQ(new_sock.received(), 1u);
  // The old incarnation's tombstone never moved.
  EXPECT_TRUE(old_sock.closed());
  EXPECT_EQ(old_sock.received(), 1u);
}

TEST(ChurnLifecycleTest, UnlearnedFdbMissDistinctFromNeverLearned) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& s1 = tb.add_server_container("s1");
  tb.server().udp_bind(s1, 7000);
  auto& fdb = tb.server().fdb(tb.overlay().vni());
  ASSERT_EQ(fdb.unlearned_misses(), 0u);

  // Keep the client's route to the server VTEP alive but unlearn the MAC
  // on the server bridge: frames for it are now unlearned misses.
  tb.overlay().stop_container(s1);
  drain(tb);
  tb.client().udp_send(c1, tb.client().cpu(1), 100, s1.ip(), 7000,
                       payload());
  drain(tb);
  EXPECT_EQ(fdb.unlearned_misses(), 1u);

  // A never-learned MAC is a plain miss, not an unlearned one.
  const auto ghost_ip = net::Ipv4Addr::of(172, 17, 0, 200);
  const auto ghost_mac = net::MacAddr::make(0xdead);
  c1.add_neighbor(ghost_ip, ghost_mac);
  tb.client().add_overlay_route(tb.overlay().vni(), ghost_mac,
                                tb.server().ip(), tb.server().mac());
  tb.client().udp_send(c1, tb.client().cpu(1), 100, ghost_ip, 7000,
                       payload());
  drain(tb);
  EXPECT_EQ(fdb.unlearned_misses(), 1u);
  EXPECT_GE(fdb.misses(), 2u);
}

TEST(ChurnLifecycleTest, MissingNeighborIsACountedUnroutableDrop) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  bool sent_cb = false;
  // No neighbour for this IP: the send degrades to a counted drop (no
  // throw) and the completion still fires so app pacing stays sane.
  tb.client().udp_send(c1, tb.client().cpu(1), 100,
                       net::Ipv4Addr::of(10, 99, 99, 99), 7000, payload(),
                       [&] { sent_cb = true; });
  drain(tb);
  EXPECT_EQ(tb.client().faults().drops.total(DropReason::kUnroutable), 1u);
  EXPECT_TRUE(sent_cb);
}

TEST(ChurnLifecycleTest, SendFromTornDownNamespaceIsDeadNetnsDrop) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& s1 = tb.add_server_container("s1");
  tb.server().udp_bind(s1, 7000);
  tb.overlay().stop_container(c1);
  drain(tb);

  bool sent_cb = false;
  tb.client().udp_send(c1, tb.client().cpu(1), 100, s1.ip(), 7000,
                       payload(), [&] { sent_cb = true; });
  drain(tb);
  EXPECT_EQ(tb.client().faults().drops.total(DropReason::kDeadNetns), 1u);
  EXPECT_TRUE(sent_cb);
}

// The ASan interleaving sweep: warm the overlay flow cache so stage 1
// holds a cached Netns*, then tear the container down at every offset
// across the packet's pipeline transit. Whatever the interleaving —
// teardown before classification, between classification and delivery,
// or after delivery — the packet must end as a delivery or a counted
// drop, never a dangling dereference (ASan proves the latter).
TEST(ChurnLifecycleTest, FlowCacheTeardownInterleavingsNeverDangle) {
  for (sim::Duration offset = 0; offset <= sim::microseconds(20);
       offset += sim::nanoseconds(500)) {
    harness::TestbedConfig cfg;
    cfg.flow_cache = true;
    harness::Testbed tb(cfg);
    auto& c1 = tb.add_client_container("c1");
    auto& s1 = tb.add_server_container("s1");
    UdpSocket& sock = tb.server().udp_bind(s1, 7000);

    // Warm: first packet populates the server's flow-cache entry with a
    // pointer to s1.
    tb.client().udp_send(c1, tb.client().cpu(1), 100, s1.ip(), 7000,
                         payload());
    drain(tb);
    ASSERT_EQ(sock.received(), 1u);

    const sim::Time t0 = tb.server_sim().now();
    tb.client().udp_send(c1, tb.client().cpu(1), 100, s1.ip(), 7000,
                         payload());
    tb.server_sim().schedule_at(t0 + offset,
                                [&] { tb.overlay().stop_container(s1); });
    drain(tb);

    const auto& drops = tb.server().faults().drops;
    const std::uint64_t ledgered = drops.total(DropReason::kDeadNetns) +
                                   drops.total(DropReason::kFdbMiss);
    EXPECT_EQ(sock.received() + ledgered, 2u)
        << "offset " << offset << ": second packet unaccounted";
    EXPECT_TRUE(sock.closed());
  }
}

TEST(ChurnLifecycleTest, SockperfRetriesRecoverAcrossRestart) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& s1 = tb.add_server_container("s1");

  auto server = std::make_unique<apps::SockperfServer>(
      tb.server_sim(), apps::SockperfServer::Config{
                           &tb.server(), &s1, &tb.server().cpu(1), 7000});

  apps::SockperfClient::Config ccfg;
  ccfg.host = &tb.client();
  ccfg.ns = &c1;
  ccfg.cpus = {&tb.client().cpu(1)};
  ccfg.dst_ip = s1.ip();
  ccfg.dst_port = 7000;
  ccfg.rate_pps = 5000;
  ccfg.reply_every = 1;
  ccfg.reply_timeout = sim::milliseconds(1);
  ccfg.max_retries = 5;
  ccfg.max_backoff = sim::milliseconds(4);
  ccfg.stop_at = sim::milliseconds(30);
  apps::SockperfClient client(tb.client_sim(), ccfg);
  client.start();

  // Outage: stop at 10 ms, restart (new incarnation + new app) at 13 ms.
  tb.server_sim().schedule_at(sim::milliseconds(10),
                              [&] { tb.overlay().stop_container(s1); });
  tb.server_sim().schedule_at(sim::milliseconds(13), [&] {
    overlay::Netns& fresh = tb.overlay().restart_container(s1);
    server = std::make_unique<apps::SockperfServer>(
        tb.server_sim(),
        apps::SockperfServer::Config{&tb.server(), &fresh,
                                     &tb.server().cpu(1), 7000});
  });
  tb.run_until(sim::milliseconds(60));

  EXPECT_GT(client.retransmits(), 0u) << "outage never forced a retry";
  EXPECT_EQ(client.probe_timeouts(), 0u)
      << "probes abandoned despite the restart landing within the budget";
  EXPECT_EQ(client.replies(), client.sent());
}

TEST(ChurnLifecycleTest, SockperfAbandonsAfterMaxRetriesWithoutRestart) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& s1 = tb.add_server_container("s1");
  apps::SockperfServer server(
      tb.server_sim(), apps::SockperfServer::Config{
                           &tb.server(), &s1, &tb.server().cpu(1), 7000});

  apps::SockperfClient::Config ccfg;
  ccfg.host = &tb.client();
  ccfg.ns = &c1;
  ccfg.cpus = {&tb.client().cpu(1)};
  ccfg.dst_ip = s1.ip();
  ccfg.dst_port = 7000;
  ccfg.rate_pps = 2000;
  ccfg.reply_every = 1;
  ccfg.reply_timeout = sim::milliseconds(1);
  ccfg.max_retries = 2;
  ccfg.stop_at = sim::milliseconds(20);
  apps::SockperfClient client(tb.client_sim(), ccfg);
  client.start();

  tb.server_sim().schedule_at(sim::milliseconds(5),
                              [&] { tb.overlay().stop_container(s1); });
  tb.run_until(sim::milliseconds(40));

  EXPECT_GT(client.retransmits(), 0u);
  EXPECT_GT(client.probe_timeouts(), 0u)
      << "a permanently-dead server must exhaust retries";
  EXPECT_LT(client.replies(), client.sent());
}

TEST(ChurnLifecycleTest, MemaslapRetriesSameRequestAcrossOutage) {
  harness::Testbed tb;
  auto& c1 = tb.add_client_container("c1");
  auto& s1 = tb.add_server_container("s1");
  auto server = std::make_unique<apps::MemcachedServer>(
      tb.server_sim(),
      apps::MemcachedServer::Config{&tb.server(), &s1,
                                    &tb.server().cpu(1)});

  apps::MemaslapClient::Config mcfg;
  mcfg.host = &tb.client();
  mcfg.ns = &c1;
  mcfg.cpu = &tb.client().cpu(1);
  mcfg.server_ip = s1.ip();
  mcfg.concurrency = 4;
  mcfg.request_timeout = sim::milliseconds(2);
  mcfg.max_retries = 4;
  mcfg.retry_backoff = sim::milliseconds(1);
  mcfg.stop_at = sim::milliseconds(40);
  apps::MemaslapClient client(tb.client_sim(), mcfg);
  client.start();

  tb.server_sim().schedule_at(sim::milliseconds(10),
                              [&] { tb.overlay().stop_container(s1); });
  tb.server_sim().schedule_at(sim::milliseconds(14), [&] {
    overlay::Netns& fresh = tb.overlay().restart_container(s1);
    server = std::make_unique<apps::MemcachedServer>(
        tb.server_sim(),
        apps::MemcachedServer::Config{&tb.server(), &fresh,
                                      &tb.server().cpu(1)});
  });
  tb.run_until(sim::milliseconds(80));

  EXPECT_GT(client.retries(), 0u) << "outage never forced a retry";
  EXPECT_GT(client.completed(), 0u);
  // Retried requests complete under their original seq, so every issued
  // request either completed, timed out past its retry budget, or is
  // still in flight (bounded by the concurrency window).
  const std::uint64_t issued = client.gets() + client.sets();
  EXPECT_LE(client.completed() + client.timeouts(), issued);
  EXPECT_LE(issued - client.completed() - client.timeouts(),
            static_cast<std::uint64_t>(mcfg.concurrency));
}

}  // namespace
}  // namespace prism::kernel
