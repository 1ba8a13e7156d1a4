// Reproduces Fig. 6: the NAPI device polling order, Vanilla vs PRISM,
// traced exactly as the paper traced the kernel with eBPF.
//
// Paper result (Fig. 6a): vanilla polls {eth, br, eth, veth, br, eth, ...}
// — the third stage of batch N is delayed behind the first stage of batch
// N+1. PRISM (Fig. 6b) polls {eth, br, veth, eth, br, veth, ...}: each
// batch completes all stages before the next is fetched.
//
// Both runs are recorded through one span tracer (one track per CPU, one
// span per device poll carrying the poll list after it); the tables read
// the server RX core's polls back from it. With --trace-out PATH the
// tracer is exported as Chrome trace_event JSON (load in Perfetto or
// chrome://tracing), so the interleaved vs streamlined orders are visible
// as the paper drew them.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/sockperf.h"
#include "bench_util.h"
#include "harness/testbed.h"
#include "telemetry/span_tracer.h"

namespace {

/// Runs `mode` with the server's CPUs on tracks [track_base, track_base +
/// 4) of `tracer` and returns the RX core's polls after warmup.
std::vector<prism::telemetry::SpanTracer::PollRow> trace_mode(
    prism::kernel::NapiMode mode, prism::telemetry::SpanTracer& tracer,
    int track_base, prism::telemetry::LatencyBreakdown& breakdown) {
  using namespace prism;
  harness::TestbedConfig tc;
  tc.mode = mode;
  harness::Testbed tb(tc);
  tb.server().set_span_tracer(&tracer, track_base);
  // Rows read "<mode>.server.cpu<i>", so the two runs' rows differ.
  for (int i = 0; i < tb.server().num_cpus(); ++i) {
    tracer.set_track_label(track_base + i,
                           std::string(kernel::to_string(mode)) + "." +
                               tb.server().name() + ".cpu" +
                               std::to_string(i));
  }
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

  tb.run_until(sim::milliseconds(3));
  breakdown = tb.server().latency_ledger().snapshot();
  // The polls from 2 ms on, so the steady-state order is shown.
  return tracer.polls(track_base + tb.server().default_rx_cpu(),
                      sim::milliseconds(2));
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

  // Vanilla on tracks [0, 4), PRISM on tracks [4, 8): both orders appear
  // in one exported timeline, one row per (mode, CPU).
  telemetry::LatencyBreakdown vanilla_lat;
  telemetry::LatencyBreakdown prism_lat;
  const auto vanilla =
      trace_mode(kernel::NapiMode::kVanilla, tracer, 0, vanilla_lat);
  std::printf("(a) Vanilla\n%s\n",
              telemetry::render_poll_table(vanilla, 12).c_str());

  const auto prism_rows =
      trace_mode(kernel::NapiMode::kPrismBatch, tracer, 4, prism_lat);
  std::printf("(b) PRISM\n%s\n",
              telemetry::render_poll_table(prism_rows, 12).c_str());

  std::printf(
      "Note how in (a) veth (stage 3 of batch N) is polled only after eth\n"
      "(stage 1 of batch N+1), while (b) follows eth -> br -> veth.\n\n");

  bench::print_latency_breakdown("vanilla", vanilla_lat);
  bench::print_latency_breakdown("prism-batch", prism_lat);

  if (tracer.dropped() > 0) {
    std::printf("spans dropped: %llu (the tables miss the oldest polls)\n",
                static_cast<unsigned long long>(tracer.dropped()));
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
