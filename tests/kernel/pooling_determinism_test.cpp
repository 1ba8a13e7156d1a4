// Recycling must be invisible to the simulation: a run with the skb and
// buffer pools enabled must execute the exact same events, poll the same
// devices in the same order, and deliver the same packets as a run with
// the pools disabled (plain new/delete). This is the fig06-style A/B
// guard for the zero-allocation hot path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/sockperf.h"
#include "harness/testbed.h"
#include "kernel/skb_pool.h"
#include "sim/pool.h"
#include "telemetry/span_tracer.h"

namespace prism {
namespace {

struct RunResult {
  std::vector<std::string> poll_order;
  std::uint64_t events = 0;
  std::uint64_t received = 0;
  std::uint64_t replies = 0;
};

RunResult run_scenario(kernel::NapiMode mode, bool pools_enabled) {
  kernel::SkbPool::instance().set_enabled(pools_enabled);
  sim::BufferPool::instance().set_enabled(pools_enabled);

  harness::TestbedConfig tc;
  tc.mode = mode;
  harness::Testbed tb(tc);
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  tb.server().priority_db().add(srv.ip(), 11111);

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

  const int rx = tb.server().default_rx_cpu();
  telemetry::SpanTracer trace;
  tb.server().engine(rx).set_span_tracer(&trace, rx);
  tb.run_until(sim::milliseconds(5));
  tb.server().engine(rx).set_span_tracer(nullptr, rx);

  RunResult r;
  for (const auto& poll : trace.polls(rx, sim::milliseconds(1))) {
    r.poll_order.push_back(poll.device);
  }
  r.events = tb.sim().events_executed();
  r.received = server.received();
  r.replies = client.replies();

  // Leave the global pools enabled for whatever test runs next.
  kernel::SkbPool::instance().set_enabled(true);
  sim::BufferPool::instance().set_enabled(true);
  return r;
}

class PoolingDeterminismTest
    : public ::testing::TestWithParam<kernel::NapiMode> {};

TEST_P(PoolingDeterminismTest, PoolsDoNotChangeSimulationBehaviour) {
  const RunResult with_pools = run_scenario(GetParam(), true);
  const RunResult without_pools = run_scenario(GetParam(), false);

  ASSERT_FALSE(with_pools.poll_order.empty());
  EXPECT_EQ(with_pools.poll_order, without_pools.poll_order);
  EXPECT_EQ(with_pools.events, without_pools.events);
  EXPECT_EQ(with_pools.received, without_pools.received);
  EXPECT_EQ(with_pools.replies, without_pools.replies);
  EXPECT_GT(with_pools.received, 0u);
  EXPECT_GT(with_pools.replies, 0u);
}

TEST_P(PoolingDeterminismTest, RepeatedPooledRunsAreIdentical) {
  const RunResult a = run_scenario(GetParam(), true);
  const RunResult b = run_scenario(GetParam(), true);
  EXPECT_EQ(a.poll_order, b.poll_order);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.replies, b.replies);
}

INSTANTIATE_TEST_SUITE_P(Modes, PoolingDeterminismTest,
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
