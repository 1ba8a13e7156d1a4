// Reproduces Fig. 6: the NAPI device polling order, Vanilla vs PRISM,
// traced exactly as the paper traced the kernel with eBPF.
//
// Paper result (Fig. 6a): vanilla polls {eth, br, eth, veth, br, eth, ...}
// — the third stage of batch N is delayed behind the first stage of batch
// N+1. PRISM (Fig. 6b) polls {eth, br, veth, eth, br, veth, ...}: each
// batch completes all stages before the next is fetched.
//
// With --trace-out PATH the same runs are re-recorded through the span
// tracer and exported as Chrome trace_event JSON (load in Perfetto or
// chrome://tracing): one track per CPU, one span per device poll, so the
// interleaved vs streamlined orders are visible as the paper drew them.
#include <cstdio>
#include <cstring>

#include "apps/sockperf.h"
#include "bench_util.h"
#include "harness/testbed.h"
#include "telemetry/span_tracer.h"
#include "trace/poll_trace.h"

namespace {

prism::trace::PollTrace trace_mode(
    prism::kernel::NapiMode mode,
    prism::telemetry::SpanTracer* tracer = nullptr, int track_base = 0,
    prism::telemetry::LatencyBreakdown* breakdown = nullptr) {
  using namespace prism;
  harness::TestbedConfig tc;
  tc.mode = mode;
  harness::Testbed tb(tc);
  if (tracer != nullptr) tb.server().set_span_tracer(tracer, track_base);
  auto& cli = tb.add_client_container("cli");
  auto& srv = tb.add_server_container("srv");
  // The traced flow is high priority so PRISM's streamlining engages.
  tb.server().priority_db().add(srv.ip(), 11111);

  apps::SockperfServer server(
      tb.server_sim(),
      {&tb.server(), &srv, &tb.server().cpu(1), 11111});
  apps::SockperfClient::Config cc;
  cc.host = &tb.client();
  cc.ns = &cli;
  cc.cpus = {&tb.client().cpu(1), &tb.client().cpu(2)};
  cc.dst_ip = srv.ip();
  cc.dst_port = 11111;
  cc.rate_pps = 500'000;  // saturating, so every stage has full batches
  cc.burst = 64;
  cc.stop_at = sim::milliseconds(5);
  apps::SockperfClient client(tb.client_sim(), cc);
  client.start();

  trace::PollTrace trace;
  // Attach after warmup so the steady-state order is captured.
  tb.server_sim().schedule_at(sim::milliseconds(2), [&] {
    tb.server().set_poll_trace(tb.server().default_rx_cpu(), &trace);
  });
  tb.run_until(sim::milliseconds(3));
  tb.server().set_poll_trace(tb.server().default_rx_cpu(), nullptr);
  if (breakdown != nullptr) {
    *breakdown = tb.server().latency_ledger().snapshot();
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prism;
  const char* trace_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }

  bench::print_header("Figure 6",
                      "NAPI device processing order, Vanilla vs PRISM");

  telemetry::SpanTracer tracer;
  telemetry::SpanTracer* tp = trace_out != nullptr ? &tracer : nullptr;

  // Vanilla on tracks [0, 4), PRISM on tracks [4, 8): both orders appear
  // in one exported timeline, one row per (mode, CPU).
  telemetry::LatencyBreakdown vanilla_lat;
  telemetry::LatencyBreakdown prism_lat;
  const auto vanilla =
      trace_mode(kernel::NapiMode::kVanilla, tp, 0, &vanilla_lat);
  std::printf("(a) Vanilla\n%s\n", vanilla.render(12).c_str());

  const auto prism_trace =
      trace_mode(kernel::NapiMode::kPrismBatch, tp, 4, &prism_lat);
  std::printf("(b) PRISM\n%s\n", prism_trace.render(12).c_str());

  std::printf(
      "Note how in (a) veth (stage 3 of batch N) is polled only after eth\n"
      "(stage 1 of batch N+1), while (b) follows eth -> br -> veth.\n\n");

  bench::print_latency_breakdown("vanilla", vanilla_lat);
  bench::print_latency_breakdown("prism-batch", prism_lat);

  if (vanilla.dropped_records() + prism_trace.dropped_records() > 0) {
    std::printf("poll-trace records dropped: vanilla %llu, prism %llu\n",
                static_cast<unsigned long long>(vanilla.dropped_records()),
                static_cast<unsigned long long>(
                    prism_trace.dropped_records()));
  }

  if (trace_out != nullptr) {
    if (tracer.export_chrome_trace_file(trace_out, "fig06")) {
      std::printf(
          "wrote %zu spans to %s — open in Perfetto (ui.perfetto.dev)\n",
          tracer.size(), trace_out);
    } else {
      std::fprintf(stderr, "fig06: cannot write %s\n", trace_out);
    }
  }
  return 0;
}
