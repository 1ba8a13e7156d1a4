// Overlay flow cache: unit tests for the LRU/generation mechanics, and
// end-to-end tests proving the invalidation story — an FDB remap or a
// fault-injected decap corruption mid-run must never deliver a packet
// through a stale cached transform, and cached classification must agree
// exactly with PriorityDb.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "harness/testbed.h"
#include "kernel/socket.h"
#include "net/flow.h"
#include "overlay/fdb.h"
#include "overlay/flow_cache.h"
#include "overlay/netns.h"

namespace prism::overlay {
namespace {

net::FiveTuple tuple(std::uint16_t src_port, std::uint16_t dst_port = 7000) {
  net::FiveTuple t;
  t.src_ip = net::Ipv4Addr::of(172, 17, 0, 2);
  t.dst_ip = net::Ipv4Addr::of(172, 17, 0, 3);
  t.src_port = src_port;
  t.dst_port = dst_port;
  t.protocol = net::IpProto::kUdp;
  return t;
}

Netns make_ns(int id) {
  return Netns("c" + std::to_string(id),
               net::Ipv4Addr::of(172, 17, 0, static_cast<std::uint8_t>(id)),
               net::MacAddr::make(static_cast<std::uint32_t>(id)), true);
}

TEST(FlowCacheTest, DisabledCacheNeverHitsOrFills) {
  FlowCache cache;
  Netns ns = make_ns(2);
  EXPECT_FALSE(cache.enabled());
  cache.insert(tuple(1000), 42, &ns, 3, cache.generation());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(tuple(1000), 42), nullptr);
  // Disabled lookups are silent: no miss accounting.
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(FlowCacheTest, InsertThenLookupReplaysTransform) {
  FlowCache cache;
  cache.set_enabled(true);
  Netns ns = make_ns(2);
  cache.insert(tuple(1000), 42, &ns, 3, cache.generation());
  const FlowCacheEntry* e = cache.lookup(tuple(1000), 42);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->dst, &ns);
  EXPECT_EQ(e->priority, 3);
  EXPECT_EQ(cache.hits(), 1u);
  // Same inner flow on a different VNI is a different key.
  EXPECT_EQ(cache.lookup(tuple(1000), 43), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FlowCacheTest, InvalidationMakesEveryEntryStale) {
  FlowCache cache;
  cache.set_enabled(true);
  Netns ns = make_ns(2);
  cache.insert(tuple(1000), 42, &ns, 3, cache.generation());
  cache.insert(tuple(1001), 42, &ns, 0, cache.generation());
  cache.invalidate();
  EXPECT_EQ(cache.lookup(tuple(1000), 42), nullptr);
  EXPECT_EQ(cache.lookup(tuple(1001), 42), nullptr);
  EXPECT_EQ(cache.stale_hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);  // stale hits read as misses
  EXPECT_EQ(cache.invalidations(), 1u);
  // Stale entries are reclaimed on discovery, not left to rot.
  EXPECT_EQ(cache.size(), 0u);
  // The slow path repopulates at the new generation and hits again.
  cache.insert(tuple(1000), 42, &ns, 3, cache.generation());
  EXPECT_NE(cache.lookup(tuple(1000), 42), nullptr);
}

TEST(FlowCacheTest, FillRacingInvalidationIsBornStale) {
  FlowCache cache;
  cache.set_enabled(true);
  Netns ns = make_ns(2);
  // The filling packet was classified at generation g...
  const std::uint64_t g = cache.generation();
  // ...then the world changed before its stage-2 fill landed.
  cache.invalidate();
  cache.insert(tuple(1000), 42, &ns, 3, g);
  // The dead-on-arrival entry must never serve a hit.
  EXPECT_EQ(cache.lookup(tuple(1000), 42), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.stale_hits(), 1u);
}

TEST(FlowCacheTest, LruEvictsColdestAtCapacity) {
  FlowCache cache(2);
  cache.set_enabled(true);
  Netns ns = make_ns(2);
  cache.insert(tuple(1), 42, &ns, 0, cache.generation());
  cache.insert(tuple(2), 42, &ns, 0, cache.generation());
  // Touch flow 1 so flow 2 is the LRU victim.
  EXPECT_NE(cache.lookup(tuple(1), 42), nullptr);
  cache.insert(tuple(3), 42, &ns, 0, cache.generation());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.lookup(tuple(1), 42), nullptr);
  EXPECT_EQ(cache.lookup(tuple(2), 42), nullptr);
  EXPECT_NE(cache.lookup(tuple(3), 42), nullptr);
}

TEST(FlowCacheTest, ReinsertRefreshesExistingEntry) {
  FlowCache cache;
  cache.set_enabled(true);
  Netns a = make_ns(2);
  Netns b = make_ns(3);
  cache.insert(tuple(1), 42, &a, 1, cache.generation());
  cache.invalidate();
  cache.insert(tuple(1), 42, &b, 2, cache.generation());
  EXPECT_EQ(cache.size(), 1u);
  const FlowCacheEntry* e = cache.lookup(tuple(1), 42);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->dst, &b);
  EXPECT_EQ(e->priority, 2);
}

TEST(FlowCacheTest, ResetClearsEntriesAndCountersKeepsGeneration) {
  FlowCache cache;
  cache.set_enabled(true);
  Netns ns = make_ns(2);
  cache.insert(tuple(1), 42, &ns, 0, cache.generation());
  cache.invalidate();
  const std::uint64_t g = cache.generation();
  cache.reset();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.insertions(), 0u);
  EXPECT_EQ(cache.invalidations(), 0u);
  EXPECT_EQ(cache.generation(), g);
  EXPECT_TRUE(cache.enabled());
}

// The satellite FDB fixes: add/remove report whether they changed the
// table, remaps are counted as overwrites, and every mutation bumps the
// generation (feeding the flow cache's invalidation hook).
TEST(FdbMutationTest, AddRemoveReportChangesAndCountOverwrites) {
  Fdb fdb;
  Netns a = make_ns(2);
  Netns b = make_ns(3);
  std::uint64_t hook_fires = 0;
  fdb.set_mutation_hook([&hook_fires] { ++hook_fires; });

  EXPECT_TRUE(fdb.add(a.mac(), a));    // new entry
  EXPECT_FALSE(fdb.add(a.mac(), a));   // identical re-add: no change
  EXPECT_EQ(fdb.overwrites(), 0u);
  EXPECT_TRUE(fdb.add(a.mac(), b));    // remap: counted overwrite
  EXPECT_EQ(fdb.overwrites(), 1u);
  EXPECT_EQ(fdb.lookup(a.mac()), &b);

  EXPECT_FALSE(fdb.remove(b.mac()));   // unknown MAC: no change
  EXPECT_TRUE(fdb.remove(a.mac()));
  EXPECT_EQ(fdb.lookup(a.mac()), nullptr);

  // Only the three real mutations fired the hook (add, remap, remove).
  EXPECT_EQ(hook_fires, 3u);
  EXPECT_EQ(fdb.generation(), 3u);
}

// ---------------------------------------------------------------- e2e

/// Sends `n` UDP datagrams from the client container to `dst_port` of the
/// server container and runs until the testbed is idle again (a second
/// past the sends; nothing recurs once it drains).
void send_n(harness::Testbed& tb, Netns& from, Netns& to, int n,
            std::uint16_t src_port = 5555, std::uint16_t dst_port = 7000) {
  for (int i = 0; i < n; ++i) {
    tb.client().udp_send(from, tb.client().cpu(1), src_port, to.ip(),
                         dst_port, std::vector<std::uint8_t>(32, 0xab));
  }
  tb.run_until(tb.client_sim().now() + sim::seconds(1));
  EXPECT_EQ(tb.sim().pending_events(), 0u);
}

TEST(FlowCacheE2ETest, SteadyFlowHitsAndClassificationMatchesPriorityDb) {
  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kPrismSync;
  tc.flow_cache = true;
  harness::Testbed tb(tc);
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  tb.server().priority_db().add(c2.ip(), 7000, /*level=*/3);
  auto& sock = tb.server().udp_bind(c2, 7000);

  const int kPackets = 100;
  send_n(tb, c1, c2, kPackets);

  EXPECT_EQ(sock.received(), static_cast<std::uint64_t>(kPackets));
  auto& cache = tb.server().flow_cache();
  EXPECT_TRUE(cache.enabled());
  // One compulsory miss fills the entry; the rest of the flow hits.
  EXPECT_GE(cache.hits(), static_cast<std::uint64_t>(kPackets - 5));
  EXPECT_GT(cache.hit_rate(), 0.9);
  // Every delivered datagram — the slow-path first packet and the cached
  // rest — carries exactly the PriorityDb classification.
  std::uint64_t drained = 0;
  while (auto d = sock.try_recv()) {
    EXPECT_EQ(d->priority, 3);
    EXPECT_TRUE(d->high_priority);
    ++drained;
  }
  EXPECT_EQ(drained, static_cast<std::uint64_t>(kPackets));
}

TEST(FlowCacheE2ETest, FdbRemapNeverDeliversThroughStaleTransform) {
  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kPrismSync;
  tc.flow_cache = true;
  harness::Testbed tb(tc);
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& c3 = tb.add_server_container("c3");
  auto& sock = tb.server().udp_bind(c2, 7000);

  const int kBatch = 20;
  send_n(tb, c1, c2, kBatch);
  ASSERT_EQ(sock.received(), static_cast<std::uint64_t>(kBatch));
  auto& cache = tb.server().flow_cache();
  ASSERT_GT(cache.hits(), 0u) << "cache never engaged; remap proves nothing";

  // Mid-run remap: c2's MAC now resolves to c3's namespace. The cached
  // transform still points at c2 — it must never be replayed.
  const std::uint64_t inv_before = cache.invalidations();
  ASSERT_TRUE(tb.server().fdb(tb.overlay().vni()).add(c2.mac(), c3));
  EXPECT_EQ(tb.server().fdb(tb.overlay().vni()).overwrites(), 1u);
  EXPECT_GT(cache.invalidations(), inv_before);

  const std::uint64_t stale_before = cache.stale_hits();
  const std::uint64_t no_socket_before =
      tb.server().faults().drops.total(fault::DropReason::kNoSocket);
  send_n(tb, c1, c2, kBatch);

  // Not one post-remap packet landed in c2's socket: the first took the
  // slow path (stale entry discarded), and every one resolved to c3 —
  // where nothing listens on 7000, so they all count as no-socket drops.
  EXPECT_EQ(sock.received(), static_cast<std::uint64_t>(kBatch));
  EXPECT_GT(cache.stale_hits(), stale_before);
  EXPECT_EQ(
      tb.server().faults().drops.total(fault::DropReason::kNoSocket),
      no_socket_before + static_cast<std::uint64_t>(kBatch));
}

TEST(FlowCacheE2ETest, DecapCorruptionInvalidatesAndConservationHolds) {
  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kPrismSync;
  tc.flow_cache = true;
  tc.server_faults.seed = 42;
  tc.server_faults.decap_corrupt_rate = 0.3;
  harness::Testbed tb(tc);
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  tb.server().priority_db().add(c2.ip(), 7000, /*level=*/3);
  auto& sock = tb.server().udp_bind(c2, 7000);

  const int kPackets = 200;
  send_n(tb, c1, c2, kPackets);

  const auto& counters = tb.server().faults().plan.counters();
  ASSERT_GT(counters.decap_corrupts, 0u);
  // Every injected corruption voided the cache (setup mutations — the
  // PriorityDb add above — bump it too, hence >=).
  EXPECT_GE(tb.server().flow_cache().invalidations(),
            counters.decap_corrupts);

  // Per-class conservation in the DropLedger: the flow is class 3, the
  // corruptions are payload-only, so every corrupted packet surfaces as
  // a class-3 checksum drop and nothing else — sent telescopes exactly
  // into delivered + checksum drops.
  const std::uint64_t checksum_drops =
      tb.server().faults().drops.count(fault::DropReason::kChecksum, 3);
  EXPECT_EQ(checksum_drops, counters.decap_corrupts);
  EXPECT_EQ(sock.received() + checksum_drops,
            static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(tb.server().faults().drops.total_drops(), checksum_drops);
}

TEST(FlowCacheE2ETest, HostMutationsBumpGeneration) {
  harness::TestbedConfig tc;
  tc.flow_cache = true;
  harness::Testbed tb(tc);
  auto& cache = tb.server().flow_cache();

  std::uint64_t g = cache.generation();
  tb.server().priority_db().add(net::Ipv4Addr::of(172, 17, 0, 9), 7000);
  EXPECT_GT(cache.generation(), g);

  g = cache.generation();
  tb.server().priority_db().remove(net::Ipv4Addr::of(172, 17, 0, 9), 7000);
  EXPECT_GT(cache.generation(), g);

  g = cache.generation();
  tb.server().add_overlay_route(tb.overlay().vni(), net::MacAddr::make(99),
                                tb.client().ip(), tb.client().mac());
  EXPECT_GT(cache.generation(), g);

  g = cache.generation();
  tb.set_mode(kernel::NapiMode::kPrismSync);
  EXPECT_GT(cache.generation(), g);
}

TEST(FlowCacheE2ETest, CacheOffByDefaultAndDatapathIgnoresIt) {
  harness::Testbed tb;  // flow_cache defaults off
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& sock = tb.server().udp_bind(c2, 7000);
  send_n(tb, c1, c2, 10);
  EXPECT_EQ(sock.received(), 10u);
  EXPECT_FALSE(tb.server().flow_cache().enabled());
  EXPECT_EQ(tb.server().flow_cache().hits(), 0u);
  EXPECT_EQ(tb.server().flow_cache().misses(), 0u);
}

}  // namespace
}  // namespace prism::overlay
