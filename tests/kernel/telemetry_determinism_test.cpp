// Telemetry must be an observer, not a participant: a run with a span
// tracer attached (and counters snapshotted mid-flight) must execute the
// exact same events, poll the same devices in the same order, and deliver
// the same packets as an uninstrumented run, which has every recorder
// switched off at run time. This mirrors the pooling determinism guard,
// A/B-ing on instrumentation instead of allocators.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/sockperf.h"
#include "harness/testbed.h"
#include "telemetry/flow_table.h"
#include "telemetry/latency.h"
#include "telemetry/snapshot.h"
#include "telemetry/span_tracer.h"
#include "trace/poll_trace.h"

namespace prism {
namespace {

struct RunResult {
  std::vector<std::string> poll_order;
  std::uint64_t events = 0;
  std::uint64_t received = 0;
  std::uint64_t replies = 0;
};

RunResult run_scenario(kernel::NapiMode mode, bool instrumented) {
  // Declared before the testbed so it outlives the hosts holding a
  // pointer to it.
  telemetry::SpanTracer tracer;

  harness::TestbedConfig tc;
  tc.mode = mode;
  harness::Testbed tb(tc);
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  tb.server().priority_db().add(srv.ip(), 11111);

  if (instrumented) {
    tb.attach_span_tracer(tracer);
  } else {
    // The uninstrumented arm flips, on both hosts, the four switches
    // perfbench's telemetry.off arm flips.
    for (kernel::Host* host : {&tb.server(), &tb.client()}) {
      host->latency_ledger().set_enabled(false);
      host->flow_table().set_enabled(false);
      host->flight_recorder().set_armed(false);
      host->anomalies().set_armed(false);
    }
  }

  apps::SockperfServer server(
      tb.server_sim(), {&tb.server(), &srv, &tb.server().cpu(1), 11111});
  apps::SockperfClient::Config cc;
  cc.host = &tb.client();
  cc.ns = &cli;
  cc.cpus = {&tb.client().cpu(1), &tb.client().cpu(2)};
  cc.dst_ip = srv.ip();
  cc.dst_port = 11111;
  cc.rate_pps = 200'000;
  cc.burst = 32;
  cc.reply_every = 4;
  cc.stop_at = sim::milliseconds(4);
  apps::SockperfClient client(tb.client_sim(), cc);
  client.start();

  trace::PollTrace trace;
  tb.server_sim().schedule_at(sim::milliseconds(1), [&] {
    tb.server().set_poll_trace(tb.server().default_rx_cpu(), &trace);
    if (instrumented) {
      // Mid-flight snapshots must be pure reads.
      (void)tb.server().softnet_stat();
      (void)telemetry::registry_json(tb.server().metrics());
      (void)telemetry::latency_json(tb.server().latency_ledger());
      (void)telemetry::flow_table_json(tb.server().flow_table());
    }
  });
  tb.run_until(sim::milliseconds(5));
  tb.server().set_poll_trace(tb.server().default_rx_cpu(), nullptr);

  std::uint64_t attributed = 0;
  for (int level = 0; level < telemetry::kNumLatencyClasses; ++level) {
    attributed += tb.server()
                      .latency_ledger()
                      .histogram(telemetry::LatencyStage::kEndToEnd, level)
                      .count();
  }
  if (instrumented) {
    EXPECT_GT(tracer.recorded(), 0u);
    EXPECT_GT(attributed, 0u);
    EXPECT_GT(tb.server().flow_table().size(), 0u);
    EXPECT_GT(tb.server().flight_recorder().recorded(), 0u);
  } else {
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(attributed, 0u);
    EXPECT_EQ(tb.server().flow_table().size(), 0u);
    EXPECT_EQ(tb.server().flight_recorder().recorded(), 0u);
    EXPECT_EQ(tb.client().flight_recorder().recorded(), 0u);
  }

  RunResult r;
  r.poll_order = trace.device_order();
  r.events = tb.sim().events_executed();
  r.received = server.received();
  r.replies = client.replies();
  return r;
}

class TelemetryDeterminismTest
    : public ::testing::TestWithParam<kernel::NapiMode> {};

TEST_P(TelemetryDeterminismTest, TracingDoesNotChangeSimulationBehaviour) {
  const RunResult with_tracer = run_scenario(GetParam(), true);
  const RunResult without_tracer = run_scenario(GetParam(), false);

  ASSERT_FALSE(with_tracer.poll_order.empty());
  EXPECT_EQ(with_tracer.poll_order, without_tracer.poll_order);
  EXPECT_EQ(with_tracer.events, without_tracer.events);
  EXPECT_EQ(with_tracer.received, without_tracer.received);
  EXPECT_EQ(with_tracer.replies, without_tracer.replies);
  EXPECT_GT(with_tracer.received, 0u);
  EXPECT_GT(with_tracer.replies, 0u);
}

TEST_P(TelemetryDeterminismTest, RepeatedInstrumentedRunsAreIdentical) {
  const RunResult a = run_scenario(GetParam(), true);
  const RunResult b = run_scenario(GetParam(), true);
  EXPECT_EQ(a.poll_order, b.poll_order);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.replies, b.replies);
}

INSTANTIATE_TEST_SUITE_P(Modes, TelemetryDeterminismTest,
                         ::testing::Values(kernel::NapiMode::kVanilla,
                                           kernel::NapiMode::kPrismBatch,
                                           kernel::NapiMode::kPrismSync),
                         [](const auto& info) {
                           switch (info.param) {
                             case kernel::NapiMode::kVanilla:
                               return "Vanilla";
                             case kernel::NapiMode::kPrismBatch:
                               return "PrismBatch";
                             default:
                               return "PrismSync";
                           }
                         });

}  // namespace
}  // namespace prism
