// End-to-end latency attribution: after a two-flow run, the per-stage
// ledger durations must telescope exactly — for every priority class,
// the six segment sums (ring wait, three service stages, two queue
// waits) add up to the end-to-end sum, because each segment is the
// difference of adjacent skb timestamps. Also covers the prism/latency
// and prism/flows proc files and per-flow accounting consistency.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/sockperf.h"
#include "harness/testbed.h"
#include "json_check.h"
#include "telemetry/flow_table.h"
#include "telemetry/latency.h"
#include "telemetry/span_tracer.h"

namespace prism {
namespace {

class LatencyE2eTest : public ::testing::Test {
 protected:
  /// `spans`, when given, is attached to both hosts for the whole run.
  void run(kernel::NapiMode mode, telemetry::SpanTracer* spans = nullptr) {
    harness::TestbedConfig tc;
    tc.mode = mode;
    tb_ = std::make_unique<harness::Testbed>(tc);
    if (spans != nullptr) tb_->attach_span_tracer(*spans);
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
    hi.stop_at = sim::milliseconds(4);
    hi_client_ =
        std::make_unique<apps::SockperfClient>(tb_->client_sim(), hi);

    apps::SockperfClient::Config bg;
    bg.host = &tb_->client();
    bg.ns = &cli;
    bg.cpus = {&tb_->client().cpu(2)};
    bg.base_src_port = 30000;
    bg.dst_ip = srv_bg.ip();
    bg.dst_port = 22222;
    bg.rate_pps = 200'000;
    bg.burst = 32;
    bg.stop_at = sim::milliseconds(4);
    bg_client_ =
        std::make_unique<apps::SockperfClient>(tb_->client_sim(), bg);

    hi_client_->start();
    bg_client_->start();
    tb_->run_until(sim::milliseconds(8));
  }

  std::unique_ptr<harness::Testbed> tb_;
  std::unique_ptr<apps::SockperfServer> hi_server_;
  std::unique_ptr<apps::SockperfServer> bg_server_;
  std::unique_ptr<apps::SockperfClient> hi_client_;
  std::unique_ptr<apps::SockperfClient> bg_client_;
};

TEST_F(LatencyE2eTest, StageDurationsTelescopeToEndToEnd) {
  run(kernel::NapiMode::kPrismSync);
  const auto& ledger = tb_->server().latency_ledger();

  EXPECT_EQ(ledger.unattributed(), 0u);

  std::uint64_t attributed = 0;
  for (int level = 0; level < telemetry::kNumLatencyClasses; ++level) {
    const auto& e2e = ledger.histogram(
        telemetry::LatencyStage::kEndToEnd, level);
    if (e2e.count() == 0) continue;
    attributed += e2e.count();
    double segment_sum = 0.0;
    for (const auto s : {telemetry::LatencyStage::kRingWait,
                         telemetry::LatencyStage::kStage1Service,
                         telemetry::LatencyStage::kStage2Wait,
                         telemetry::LatencyStage::kStage2Service,
                         telemetry::LatencyStage::kStage3Wait,
                         telemetry::LatencyStage::kStage3Service}) {
      segment_sum += ledger.histogram(s, level).sum();
    }
    // Exact: each segment is a difference of adjacent timestamps and
    // sum() accumulates raw values, so the telescoping holds to the ns.
    EXPECT_DOUBLE_EQ(segment_sum, e2e.sum()) << "class " << level;
  }

  // Every delivery the deliverer made was attributed to some class.
  EXPECT_GT(attributed, 0u);
  EXPECT_EQ(attributed, tb_->server().deliverer().delivered());

  // Both priority classes saw traffic (probe flow is class 1+).
  EXPECT_GT(
      ledger.histogram(telemetry::LatencyStage::kEndToEnd, 0).count(), 0u);
  std::uint64_t high = 0;
  for (int level = 1; level < telemetry::kNumLatencyClasses; ++level) {
    high += ledger.histogram(telemetry::LatencyStage::kEndToEnd, level)
                .count();
  }
  EXPECT_GT(high, 0u);
}

TEST_F(LatencyE2eTest, AuxiliaryAxesArePopulated) {
  run(kernel::NapiMode::kVanilla);
  const auto& ledger = tb_->server().latency_ledger();

  // IRQ-to-poll is recorded once per device poll wakeup.
  EXPECT_GT(
      ledger.histogram(telemetry::LatencyStage::kIrqToPoll, 0).count(),
      0u);
  // The sockperf servers read everything they were sent, so socket wait
  // has one sample per read datagram.
  const auto read_total = hi_server_->received() + bg_server_->received();
  std::uint64_t socket_wait = 0;
  for (int level = 0; level < telemetry::kNumLatencyClasses; ++level) {
    socket_wait +=
        ledger.histogram(telemetry::LatencyStage::kSocketWait, level)
            .count();
  }
  EXPECT_EQ(socket_wait, read_total);
}

TEST_F(LatencyE2eTest, FlowTableAccountsDeliveredTraffic) {
  run(kernel::NapiMode::kPrismBatch);
  const auto& flows = tb_->server().flow_table();

  EXPECT_GT(flows.size(), 0u);
  std::uint64_t packets = 0;
  for (const auto* e : flows.entries()) {
    packets += e->packets;
    EXPECT_GE(e->last_seen, e->first_seen);
    EXPECT_GT(e->bytes, 0u);
  }
  // No evictions in a two-flow run, so the table is a complete account.
  EXPECT_EQ(flows.evictions(), 0u);
  EXPECT_EQ(packets, tb_->server().deliverer().delivered());
}

TEST_F(LatencyE2eTest, ProcFilesRoundTripAsJson) {
  telemetry::SpanTracer spans;
  run(kernel::NapiMode::kPrismSync, &spans);
  auto& proc = tb_->server().proc();

  const std::string latency = proc.read("prism/latency");
  EXPECT_TRUE(::prism::testing::is_valid_json(latency)) << latency;
  EXPECT_NE(latency.find("\"stages\""), std::string::npos);
  EXPECT_NE(latency.find("\"end_to_end\""), std::string::npos);
  EXPECT_NE(latency.find("\"ring_wait\""), std::string::npos);

  const std::string flows = proc.read("prism/flows");
  EXPECT_TRUE(::prism::testing::is_valid_json(flows)) << flows;
  EXPECT_NE(flows.find("\"flows\""), std::string::npos);
  EXPECT_NE(flows.find("\"evictions\""), std::string::npos);

  // The combined telemetry file nests both plus ring-drop accounting.
  const std::string all = proc.read("prism/telemetry");
  EXPECT_TRUE(::prism::testing::is_valid_json(all)) << all;
  EXPECT_NE(all.find("\"latency\""), std::string::npos);
  EXPECT_NE(all.find("\"flows\""), std::string::npos);
  EXPECT_NE(all.find("\"rings\""), std::string::npos);
  EXPECT_NE(all.find("\"dropped\""), std::string::npos);
  // The attached tracer's ring reports what it recorded and retained.
  EXPECT_GT(spans.recorded(), 0u);
  EXPECT_GT(spans.size(), 0u);
  const std::string counts =
      "\"spans\":{\"recorded\":" + std::to_string(spans.recorded()) +
      ",\"retained\":" + std::to_string(spans.size()) +
      ",\"dropped\":" + std::to_string(spans.dropped()) + "}";
  EXPECT_NE(all.find(counts), std::string::npos) << all;

  // Detached, the ring reports zeros.
  tb_->server().set_span_tracer(nullptr);
  tb_->client().set_span_tracer(nullptr);
  const std::string detached = proc.read("prism/telemetry");
  EXPECT_TRUE(::prism::testing::is_valid_json(detached)) << detached;
  EXPECT_NE(detached.find("\"spans\":{\"recorded\":0,\"retained\":0,"
                          "\"dropped\":0}"),
            std::string::npos)
      << detached;
}

}  // namespace
}  // namespace prism
