// End-to-end reconciliation: after a two-flow run (high-priority probe
// flow + low-priority bulk flow), the telemetry registry, the
// softnet_stat rows, and the /proc files must agree with the components'
// own ground-truth accessors. This is the guard that every registered
// name is wired to the component member it claims to report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sockperf.h"
#include "harness/testbed.h"
#include "json_check.h"
#include "telemetry/snapshot.h"
#include "telemetry/span_tracer.h"

namespace prism {
namespace {

class TelemetryE2eTest : public ::testing::Test {
 protected:
  void run(kernel::NapiMode mode) {
    harness::TestbedConfig tc;
    tc.mode = mode;
    tb_ = std::make_unique<harness::Testbed>(tc);
    auto& cli = tb_->add_client_container("cli");
    auto& srv_hi = tb_->add_server_container("srv-hi");
    auto& srv_bg = tb_->add_server_container("srv-bg");
    tb_->server().priority_db().add(srv_hi.ip(), 11111);

    hi_server_ = std::make_unique<apps::SockperfServer>(
        tb_->server_sim(),
        apps::SockperfServer::Config{&tb_->server(), &srv_hi,
                                     &tb_->server().cpu(1), 11111});
    bg_server_ = std::make_unique<apps::SockperfServer>(
        tb_->server_sim(),
        apps::SockperfServer::Config{&tb_->server(), &srv_bg,
                                     &tb_->server().cpu(2), 22222});

    apps::SockperfClient::Config hi;
    hi.host = &tb_->client();
    hi.ns = &cli;
    hi.cpus = {&tb_->client().cpu(1)};
    hi.dst_ip = srv_hi.ip();
    hi.dst_port = 11111;
    hi.rate_pps = 50'000;
    hi.reply_every = 4;
    hi.stop_at = sim::milliseconds(4);
    hi_client_ =
        std::make_unique<apps::SockperfClient>(tb_->client_sim(), hi);

    apps::SockperfClient::Config bg;
    bg.host = &tb_->client();
    bg.ns = &cli;
    bg.cpus = {&tb_->client().cpu(2), &tb_->client().cpu(3)};
    bg.base_src_port = 30000;
    bg.dst_ip = srv_bg.ip();
    bg.dst_port = 22222;
    bg.rate_pps = 300'000;
    bg.burst = 64;
    bg.stop_at = sim::milliseconds(4);
    bg_client_ =
        std::make_unique<apps::SockperfClient>(tb_->client_sim(), bg);

    hi_client_->start();
    bg_client_->start();
    // Run well past the send window so sockets drain and every scheduled
    // enqueue lands.
    tb_->run_until(sim::milliseconds(8));
  }

  /// A single hot 400 kpps flow hammering a 64-deep backlog whose stage is
  /// the bottleneck (~200 kpps), so the backlog pins at its limit and,
  /// with overload control on, the flow limiter convicts the flow.
  void flood_hot_flow(bool overload_enabled) {
    bg_client_.reset();  // the apps reference the testbed being replaced
    bg_server_.reset();
    harness::TestbedConfig tc;
    tc.mode = kernel::NapiMode::kPrismBatch;
    tc.server_netdev_max_backlog = 64;
    tc.server_overload.enabled = overload_enabled;
    tc.cost.backlog_stage_per_packet = sim::microseconds(4);
    tb_ = std::make_unique<harness::Testbed>(tc);
    auto& cli = tb_->add_client_container("cli");
    auto& srv = tb_->add_server_container("srv-bg");
    bg_server_ = std::make_unique<apps::SockperfServer>(
        tb_->server_sim(),
        apps::SockperfServer::Config{&tb_->server(), &srv,
                                     &tb_->server().cpu(2), 22222});
    apps::SockperfClient::Config bg;
    bg.host = &tb_->client();
    bg.ns = &cli;
    bg.cpus = {&tb_->client().cpu(2)};
    bg.dst_ip = srv.ip();
    bg.dst_port = 22222;
    bg.rate_pps = 400'000;
    bg.burst = 64;
    bg.reply_every = 0;
    bg.stop_at = sim::milliseconds(4);
    bg_client_ =
        std::make_unique<apps::SockperfClient>(tb_->client_sim(), bg);
    bg_client_->start();
    tb_->run_until(sim::milliseconds(8));
  }

  std::unique_ptr<harness::Testbed> tb_;
  std::unique_ptr<apps::SockperfServer> hi_server_;
  std::unique_ptr<apps::SockperfServer> bg_server_;
  std::unique_ptr<apps::SockperfClient> hi_client_;
  std::unique_ptr<apps::SockperfClient> bg_client_;
};

/// Every registered counter that a component accessor also reports must
/// read exactly that accessor's value: the check that each name is wired
/// to the right member. `sockets` are the host's UDP sockets the test can
/// reach (the clients' reply sockets are private to the app).
void expect_registry_matches_components(
    kernel::Host& host, const std::vector<kernel::UdpSocket*>& sockets) {
  SCOPED_TRACE(host.name());
  const telemetry::Registry& m = host.metrics();
  const auto value = [&m](const std::string& name) {
    return m.counter_value(name);
  };

  // Socket layer: the deliverer and the receive buffers it fills. All the
  // traffic is UDP, so every delivery entered a buffer or dropped at one.
  const auto& d = host.deliverer();
  EXPECT_EQ(value("sockets.delivered"), d.delivered());
  EXPECT_EQ(value("sockets.no_socket_drops"), d.no_socket_drops());
  EXPECT_EQ(value("sockets.csum_drops"), d.csum_drops());
  EXPECT_EQ(value("sockets.dead_ns_drops"), d.dead_ns_drops());
  EXPECT_EQ(value("sockets.rcvbuf_enqueued") + value("sockets.rcvbuf_drops"),
            d.delivered());
  if (!sockets.empty()) {
    std::uint64_t enqueued = 0;
    std::uint64_t drops = 0;
    for (const kernel::UdpSocket* s : sockets) {
      enqueued += s->received();
      drops += s->dropped();
    }
    EXPECT_EQ(value("sockets.rcvbuf_enqueued"), enqueued);
    EXPECT_EQ(value("sockets.rcvbuf_drops"), drops);
  }

  // NIC, its RSS queues, and the driver poll of each queue. Every
  // arriving frame is either ring-buffered or ring-dropped.
  auto& nic = host.nic();
  EXPECT_EQ(value("nic.rx_frames"), nic.rx_frames());
  EXPECT_EQ(value("nic.tx_frames"), nic.tx_frames());
  EXPECT_GT(value("nic.rx_frames"), 0u);
  std::uint64_t queued = 0;
  for (int q = 0; q < nic.num_queues(); ++q) {
    const std::string p = "nic.q" + std::to_string(q) + ".";
    const nic::RxQueue& ring = nic.queue(q);
    EXPECT_EQ(value(p + "frames"), ring.frames_received());
    EXPECT_EQ(value(p + "ring_drops"), ring.frames_dropped());
    EXPECT_EQ(value(p + "irqs"), ring.irqs_fired());
    const kernel::NicNapi& napi = host.nic_napi(q);
    EXPECT_EQ(value(p + "unroutable_drops"), napi.dropped_unroutable());
    EXPECT_EQ(value(p + "malformed_drops"), napi.dropped_malformed());
    EXPECT_EQ(value(p + "gro_merged"), napi.gro_merged());
    queued += value(p + "frames") + value(p + "ring_drops");
  }
  EXPECT_EQ(value("nic.rx_frames"), queued);

  // Softirq engines, and each CPU's backlog napi and veth stage. The
  // stages have no per-CPU accessor: their sums must match the "veth" row
  // of net/dev, and on each CPU the backlog's enqueues are the stage's
  // packets plus what is still queued (vanilla never bypasses a backlog).
  const auto rows = host.softnet_rows();
  std::uint64_t veth_delivered = 0;
  std::uint64_t veth_dropped = 0;
  for (int i = 0; i < host.num_cpus(); ++i) {
    const std::string p = "cpu" + std::to_string(i) + ".";
    const kernel::NetRxEngine& e = host.engine(i);
    EXPECT_EQ(value(p + "softirqs"), e.softirq_invocations());
    EXPECT_EQ(value(p + "polls"), e.polls());
    EXPECT_EQ(value(p + "packets"), e.packets_processed());
    EXPECT_EQ(value(p + "time_squeeze"), e.time_squeezes());
    EXPECT_EQ(value(p + "budget_squeeze"), e.budget_squeezes());
    EXPECT_EQ(value(p + "time_budget_squeeze"), e.time_budget_squeezes());
    EXPECT_EQ(value(p + "ksoftirqd_runs"), e.ksoftirqd_runs());
    EXPECT_EQ(value(p + "requeues"), e.requeues());
    EXPECT_EQ(value(p + "prism_head_inserts"), e.head_inserts());
    const telemetry::SoftnetRow& row = rows[static_cast<std::size_t>(i)];
    EXPECT_EQ(value(p + "backlog.dropped"), row.dropped);
    EXPECT_EQ(value(p + "backlog.enqueued"),
              value(p + "veth.delivered") + value(p + "veth.dropped") +
                  row.backlog_len);
    veth_delivered += value(p + "veth.delivered");
    veth_dropped += value(p + "veth.dropped") + value(p + "backlog.dropped");
  }
  const auto dev = host.net_dev_rows();
  const auto veth = std::find_if(dev.begin(), dev.end(), [](const auto& r) {
    return r.name == "veth";
  });
  ASSERT_NE(veth, dev.end());
  EXPECT_EQ(veth->rx_packets, veth_delivered);
  EXPECT_EQ(veth->rx_dropped, veth_dropped);

  // The overlay bridge: its per-CPU stages and cells share one prefix.
  // Each cell enqueue was forwarded, FDB-dropped, or is still queued.
  const std::uint32_t vni = harness::TestbedConfig{}.vni;
  const std::string br = "overlay.br" + std::to_string(vni) + ".";
  overlay::Bridge& bridge = host.bridge(vni);
  std::uint64_t forwarded = 0;
  std::uint64_t fdb_drops = 0;
  std::uint64_t rps_steered = 0;
  std::uint64_t cell_dropped = 0;
  std::uint64_t cell_queued = 0;
  for (int c = 0; c < host.num_cpus(); ++c) {
    forwarded += bridge.stage(c).forwarded();
    fdb_drops += bridge.stage(c).dropped();
    rps_steered += bridge.stage(c).rps_steered();
    const kernel::QueueNapi& cell = bridge.cell(c);
    cell_dropped += cell.low_dropped() + cell.high_dropped();
    cell_queued += cell.pending_total();
  }
  EXPECT_EQ(value(br + "forwarded"), forwarded);
  EXPECT_EQ(value(br + "fdb_drops"), fdb_drops);
  EXPECT_EQ(value(br + "rps_steered"), rps_steered);
  EXPECT_EQ(value(br + "cell.dropped"), cell_dropped);
  EXPECT_EQ(value(br + "cell.enqueued"), forwarded + fdb_drops + cell_queued);
  EXPECT_EQ(value(br + "fdb.miss"), host.fdb(vni).misses());
  EXPECT_EQ(value(br + "fdb.unlearned_miss"),
            host.fdb(vni).unlearned_misses());

  // Flow cache and overload governor.
  const overlay::FlowCache& fc = host.flow_cache();
  EXPECT_EQ(value("flowcache.hits"), fc.hits());
  EXPECT_EQ(value("flowcache.misses"), fc.misses());
  EXPECT_EQ(value("flowcache.stale"), fc.stale_hits());
  EXPECT_EQ(value("flowcache.insertions"), fc.insertions());
  EXPECT_EQ(value("flowcache.evictions"), fc.evictions());
  EXPECT_EQ(value("flowcache.invalidations"), fc.invalidations());
  const kernel::OverloadGovernor& gov = host.governor();
  EXPECT_EQ(value("overload.entries"), gov.entries());
  EXPECT_EQ(value("overload.exits"), gov.exits());
  EXPECT_EQ(value("overload.livelocks"), gov.livelocks());

  // One drop-ledger name per reason, summing that reason's classes.
  for (int r = 0; r < fault::kNumDropReasons; ++r) {
    const auto reason = static_cast<fault::DropReason>(r);
    const std::string name =
        std::string("faults.drop.") + fault::drop_reason_name(reason);
    EXPECT_EQ(value(name), host.faults().drops.total(reason)) << name;
  }
}

TEST_F(TelemetryE2eTest, RegistryMatchesComponentGroundTruth) {
  run(kernel::NapiMode::kVanilla);

  // Both flows actually ran.
  EXPECT_GT(hi_server_->received(), 0u);
  EXPECT_GT(bg_server_->received(), 0u);

  expect_registry_matches_components(
      tb_->server(), {&hi_server_->socket(), &bg_server_->socket()});
  expect_registry_matches_components(tb_->client(), {});
}

TEST_F(TelemetryE2eTest, DeliveredPlusDroppedReconciles) {
  run(kernel::NapiMode::kPrismBatch);
  auto& server = tb_->server();
  auto& m = server.metrics();

  // Every datagram the deliverer handed to a socket either entered a
  // receive buffer or was dropped at one.
  const std::uint64_t delivered = m.counter_value("sockets.delivered");
  const std::uint64_t enqueued = m.counter_value("sockets.rcvbuf_enqueued");
  const std::uint64_t rcvbuf_drops =
      m.counter_value("sockets.rcvbuf_drops");
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(delivered, enqueued + rcvbuf_drops);

  // Application ground truth: everything enqueued was read by one of the
  // two servers or is still sitting in a receive buffer.
  EXPECT_EQ(enqueued, hi_server_->received() + bg_server_->received() +
                          hi_server_->socket().queue_depth() +
                          bg_server_->socket().queue_depth());

  // softnet_stat rows reconcile with the engines and with delivery: each
  // delivered packet was processed by net_rx_action at least once (the
  // overlay path processes it once per pipeline stage).
  auto rows = server.softnet_rows();
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(server.num_cpus()));
  std::uint64_t processed = 0;
  std::uint64_t squeezes = 0;
  for (const auto& r : rows) {
    EXPECT_EQ(r.processed,
              server.engine(static_cast<int>(r.cpu)).packets_processed());
    EXPECT_EQ(r.time_squeeze,
              server.engine(static_cast<int>(r.cpu)).time_squeezes());
    processed += r.processed;
    squeezes += r.time_squeeze;
  }
  EXPECT_GE(processed, delivered);
  (void)squeezes;
}

TEST_F(TelemetryE2eTest, FlowLimitColumnReconcilesWithLedger) {
  // The flow limiter convicts the hot flow, and the softnet_stat
  // flow_limit_count column, the per-CPU admission counters, and the
  // DropLedger must all agree.
  flood_hot_flow(/*overload_enabled=*/true);
  auto& server = tb_->server();
  std::uint64_t column_total = 0;
  for (const auto& r : server.softnet_rows()) column_total += r.flow_limit;
  std::uint64_t admission_total = 0;
  for (int i = 0; i < server.num_cpus(); ++i) {
    admission_total += server.admission(i).flow_limit_count();
  }
  EXPECT_GT(column_total, 0u);
  EXPECT_EQ(column_total, admission_total);
  EXPECT_EQ(column_total,
            server.faults().drops.total(fault::DropReason::kFlowLimit));

  // The rendered softnet_stat exposes the same totals in the
  // flow_limit_count column (index 10, as in the kernel's format).
  const std::string softnet = server.proc().read("net/softnet_stat");
  std::uint64_t rendered_total = 0;
  std::istringstream lines(softnet);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream cols(line);
    std::string col;
    for (int i = 0; i <= 10 && cols >> col; ++i) {
      if (i == 10) rendered_total += std::stoull(col, nullptr, 16);
    }
  }
  EXPECT_EQ(rendered_total, column_total);
}

TEST_F(TelemetryE2eTest, OverloadSwitchedOffAtRunTimeStaysDormant) {
  // OverloadConfig::enabled is overload control's only off switch. What
  // the off arm must hold at zero is first shown nonzero with it on.
  const auto deferrals = [this] {
    std::uint64_t n = 0;
    for (int i = 0; i < tb_->server().num_cpus(); ++i) {
      n += tb_->server().engine(i).ksoftirqd_deferrals();
    }
    return n;
  };
  flood_hot_flow(/*overload_enabled=*/true);
  const std::uint64_t on_received = bg_server_->received();
  EXPECT_GT(tb_->server().faults().drops.total(fault::DropReason::kFlowLimit),
            0u);
  EXPECT_GT(deferrals(), 0u);
  EXPECT_GT(tb_->server().governor().entries(), 0u);

  // Off: nothing is shed at the backlog (the excess waits in the NIC ring,
  // so more of the flow is delivered by the end of the run), the softirq
  // never defers, and the governor never moves or stretches moderation.
  flood_hot_flow(/*overload_enabled=*/false);
  auto& server = tb_->server();
  EXPECT_EQ(server.faults().drops.total(fault::DropReason::kFlowLimit), 0u);
  EXPECT_EQ(server.faults().drops.total(fault::DropReason::kOverloadShed),
            0u);
  EXPECT_GT(bg_server_->received(), on_received);
  EXPECT_EQ(deferrals(), 0u);
  EXPECT_TRUE(server.governor().transitions().empty());
  EXPECT_EQ(server.nic().queue(0).coalesce().usecs,
            harness::TestbedConfig{}.coalesce.usecs);
}

TEST_F(TelemetryE2eTest, ProcFilesExposeTelemetry) {
  run(kernel::NapiMode::kPrismSync);
  auto& server = tb_->server();

  const std::string softnet = server.proc().read("net/softnet_stat");
  EXPECT_EQ(softnet, server.softnet_stat());
  EXPECT_FALSE(softnet.empty());
  // One 13-hex-column row per CPU.
  EXPECT_EQ(std::count(softnet.begin(), softnet.end(), '\n'),
            server.num_cpus());

  const std::string dev = server.proc().read("net/dev");
  EXPECT_NE(dev.find("eth0:"), std::string::npos);
  EXPECT_NE(dev.find("br42:"), std::string::npos);
  EXPECT_NE(dev.find("veth:"), std::string::npos);

  const std::string json = server.proc().read("prism/telemetry");
  EXPECT_TRUE(::prism::testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"sockets.delivered\""), std::string::npos);

  // Registered files are read-only, like real procfs stat files.
  EXPECT_FALSE(server.proc().write("net/softnet_stat", "0"));
  // Unknown paths still read as empty.
  EXPECT_TRUE(server.proc().read("net/nope").empty());
}


TEST(TelemetryProcTest, SpanRingReportsTheAttachedTracer) {
  harness::Testbed tb;
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  apps::SockperfServer server(
      tb.server_sim(), apps::SockperfServer::Config{
                           &tb.server(), &srv, &tb.server().cpu(1), 11111});
  // The "spans" member of the server's prism/telemetry document.
  const auto spans_of = [&tb] {
    const std::string json = tb.server().proc().read("prism/telemetry");
    const auto at = json.find("\"spans\":");
    if (at == std::string::npos) return json;
    return json.substr(at, json.find('}', at) - at + 1);
  };
  // Nothing attached: the ring reads zeros.
  EXPECT_EQ(spans_of(),
            "\"spans\":{\"recorded\":0,\"retained\":0,\"dropped\":0}");

  // A 64-span tracer overflows within 2 ms at 100 kpps; the server's
  // proc file must report exactly what the attached tracer holds.
  telemetry::SpanTracer tracer(64);
  tb.attach_span_tracer(tracer);
  apps::SockperfClient::Config cc;
  cc.host = &tb.client();
  cc.ns = &cli;
  cc.cpus = {&tb.client().cpu(1)};
  cc.dst_ip = srv.ip();
  cc.dst_port = 11111;
  cc.rate_pps = 100'000;
  cc.stop_at = sim::milliseconds(2);
  apps::SockperfClient client(tb.client_sim(), cc);
  client.start();
  tb.run_until(sim::milliseconds(2));

  EXPECT_EQ(spans_of(), "\"spans\":{\"recorded\":" +
                            std::to_string(tracer.recorded()) +
                            ",\"retained\":" +
                            std::to_string(tracer.size()) + ",\"dropped\":" +
                            std::to_string(tracer.dropped()) + "}");
#if PRISM_TELEMETRY_ENABLED
  EXPECT_EQ(tracer.size(), 64u);
  EXPECT_GT(tracer.dropped(), 0u);
#endif
}

}  // namespace
}  // namespace prism
