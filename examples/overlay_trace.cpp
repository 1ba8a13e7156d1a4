// Inside the pipeline: reproduce the paper's eBPF-style traces.
//
// Runs a saturating overlay flow, then prints (a) the NAPI device polling
// order (the paper's Fig. 6) and (b) the per-stage latency breakdown of
// delivered packets, for vanilla vs PRISM-batch. This is the tooling view
// of WHY PRISM helps: watch veth processing slide forward in the
// schedule.
#include <cstdio>

#include "apps/sockperf.h"
#include "harness/testbed.h"
#include "telemetry/latency.h"
#include "telemetry/span_tracer.h"

namespace {

void run_mode(prism::kernel::NapiMode mode) {
  using namespace prism;
  harness::TestbedConfig tc;
  tc.mode = mode;
  harness::Testbed tb(tc);
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  tb.server().priority_db().add(srv.ip(), 11111);
  tb.client().priority_db().add(cli.ip(), 20000);

  apps::SockperfServer server(tb.server_sim(), {&tb.server(), &srv,
                                                &tb.server().cpu(1), 11111});
  apps::SockperfClient::Config cc;
  cc.host = &tb.client();
  cc.ns = &cli;
  cc.cpus = {&tb.client().cpu(1), &tb.client().cpu(2)};
  cc.base_src_port = 20000;
  cc.dst_ip = srv.ip();
  cc.dst_port = 11111;
  cc.rate_pps = 350'000;  // loaded but below capacity
  cc.burst = 64;
  cc.stop_at = sim::milliseconds(8);
  apps::SockperfClient client(tb.client_sim(), cc);
  client.start();

  // Trace the [4 ms, 6 ms) window: poll order from the engine's spans,
  // per-stage latency from the server's ledger, reset at the window's
  // start.
  telemetry::SpanTracer spans;
  tb.server_sim().schedule_at(sim::milliseconds(4), [&] {
    tb.server().set_span_tracer(&spans);
    tb.server().latency_ledger().reset();
  });
  tb.run_until(sim::milliseconds(6));
  tb.server().set_span_tracer(nullptr);
  const telemetry::LatencyBreakdown window =
      tb.server().latency_ledger().snapshot();
  tb.run_until(sim::milliseconds(20));  // drain past the client's stop

  std::printf("--- %s ---\n", kernel::to_string(mode));
  std::printf("%s\n", telemetry::render_poll_table(
                           spans.polls(tb.server().default_rx_cpu()), 9)
                           .c_str());
  std::printf("%s\n", telemetry::render_latency_breakdown(window).c_str());
}

}  // namespace

int main() {
  std::printf(
      "NAPI poll order and per-stage latency, traced at the server\n"
      "(compare with the paper's Fig. 6).\n\n");
  run_mode(prism::kernel::NapiMode::kVanilla);
  run_mode(prism::kernel::NapiMode::kPrismBatch);
  return 0;
}
