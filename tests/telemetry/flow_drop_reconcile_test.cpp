// Reconciliation between the two drop-accounting surfaces: the per-flow
// last-N drop-reason history in "prism/flows" and the per-(reason,
// class) totals in the DropLedger ("prism/faults"). Both are fed from
// the same socket-delivery call sites, so for the socket-layer reasons
// (checksum, no-socket, alloc-fail) the flow table's drop counts must
// sum to exactly the ledger's totals — a divergence means one surface
// lies about why packets died.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sockperf.h"
#include "fault/fault.h"
#include "harness/testbed.h"
#include "net/flow.h"
#include "net/ip.h"
#include "sim/time.h"
#include "telemetry/flow_table.h"

namespace prism {
namespace {

net::FiveTuple tuple(std::uint16_t src_port) {
  net::FiveTuple t;
  t.src_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  t.dst_ip = net::Ipv4Addr::of(10, 0, 0, 2);
  t.src_port = src_port;
  t.dst_port = 9000;
  t.protocol = net::IpProto::kUdp;
  return t;
}

TEST(FlowDropReconcileTest, DropHistoryIsNewestFirstBoundedRing) {
  telemetry::FlowTable table;
  const auto f = tuple(1);
  // More drops than the history holds: the ring must keep the newest
  // kDropHistory reasons, most recent first.
  for (int r = 0; r < 12; ++r) table.record_drop(f, 0, r, r);
  const auto* e = table.lookup(f);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->drops, 12u);
  const auto recent = e->recent_drop_reasons();
  ASSERT_EQ(recent.size(), telemetry::FlowTable::kDropHistory);
  for (std::size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i], 11 - static_cast<int>(i));
  }
  // Fewer drops than the window: only the recorded ones are visible.
  const auto g = tuple(2);
  table.record_drop(g, 0, 100, /*reason=*/5);
  table.record_drop(g, 0, 101, /*reason=*/3);
  const auto* ge = table.lookup(g);
  ASSERT_NE(ge, nullptr);
  const auto grecent = ge->recent_drop_reasons();
  ASSERT_EQ(grecent.size(), 2u);
  EXPECT_EQ(grecent[0], 3);
  EXPECT_EQ(grecent[1], 5);
}

TEST(FlowDropReconcileTest, SocketLayerDropsMatchDropLedgerTotals) {
  // One delivered flow (bound socket) and one undeliverable flow (no
  // socket on the port) through the real testbed pipeline.
  harness::TestbedConfig tc;
  harness::Testbed tb(tc);
  auto& good_ns = tb.add_client_container("cli-good");
  auto& bad_ns = tb.add_client_container("cli-bad");
  auto& srv = tb.add_server_container("srv");
  tb.server().priority_db().add(srv.ip(), 11111);
  apps::SockperfServer server(
      tb.server_sim(), {&tb.server(), &srv, &tb.server().cpu(1), 11111});

  auto make_client = [&](overlay::Netns& ns, kernel::Cpu& cpu,
                         std::uint16_t dst_port) {
    apps::SockperfClient::Config clc;
    clc.host = &tb.client();
    clc.ns = &ns;
    clc.cpus = {&cpu};
    clc.dst_ip = srv.ip();
    clc.dst_port = dst_port;
    clc.rate_pps = 50'000.0;
    clc.reply_every = 4;
    clc.stop_at = sim::milliseconds(2);
    return apps::SockperfClient(tb.client_sim(), clc);
  };
  auto good = make_client(good_ns, tb.client().cpu(1), 11111);
  auto bad = make_client(bad_ns, tb.client().cpu(2), 7777);  // unbound
  good.start();
  bad.start();
  tb.run_until(sim::milliseconds(3));
  ASSERT_GT(server.received(), 0u);

  // Socket-layer reasons the deliverer threads into the flow table.
  const auto& ledger = tb.server().faults().drops;
  const std::uint64_t socket_layer_drops =
      ledger.total(fault::DropReason::kChecksum) +
      ledger.total(fault::DropReason::kNoSocket) +
      ledger.total(fault::DropReason::kAllocFail);
  ASSERT_GT(ledger.total(fault::DropReason::kNoSocket), 0u);

  auto& table = tb.server().flow_table();
  ASSERT_EQ(table.evictions(), 0u);  // exactness needs the full history
  std::uint64_t flow_drops = 0;
  const telemetry::FlowTable::Entry* victim = nullptr;
  for (const auto* e : table.entries()) {
    flow_drops += e->drops;
    if (e->drops > 0) victim = e;
  }
  EXPECT_EQ(flow_drops, socket_layer_drops)
      << "prism/flows and prism/faults disagree on socket-layer drops";

  // The victim flow remembers WHY: every recent reason is no-socket, and
  // the window is full (the flood outran kDropHistory).
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->flow.dst_port, 7777);
  EXPECT_EQ(victim->packets, 0u);
  EXPECT_GT(victim->drops, telemetry::FlowTable::kDropHistory);
  const auto recent = victim->recent_drop_reasons();
  ASSERT_EQ(recent.size(), telemetry::FlowTable::kDropHistory);
  for (const int reason : recent) {
    EXPECT_EQ(reason, static_cast<int>(fault::DropReason::kNoSocket));
  }

  // The delivered flow carries no drop history at all.
  for (const auto* e : table.entries()) {
    if (e == victim) continue;
    EXPECT_EQ(e->drops, 0u);
    EXPECT_TRUE(e->recent_drop_reasons().empty());
  }
}

}  // namespace
}  // namespace prism
