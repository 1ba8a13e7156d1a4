// Quickstart: build the paper's two-host testbed, run the core
// priority-differentiation experiment in all three modes, and print the
// latency a high-priority flow sees with and without background traffic.
//
//   $ ./examples/quickstart
//   $ ./examples/quickstart --telemetry            # + server softnet_stat
//   $ ./examples/quickstart --trace-out run.json   # + Perfetto timeline
//
// --telemetry prints the server's /proc/net/softnet_stat-style counters
// after the busy prism-sync run; --trace-out exports the same run's
// per-CPU timeline as Chrome trace_event JSON (ui.perfetto.dev).
//
// This is the 60-second tour of the library: Testbed -> scenario ->
// histogram -> table.
#include <cstdio>
#include <cstring>

#include "harness/experiment.h"
#include "stats/summary.h"
#include "stats/table.h"

int main(int argc, char** argv) {
  using namespace prism;

  bool telemetry = false;
  const char* trace_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }

  std::printf("PRISM quickstart: high-priority overlay flow latency\n");
  std::printf("(1 Kpps probe; background = 300 Kpps low-priority UDP)\n\n");

  stats::Table table({"configuration", "p50 (us)", "mean (us)", "p99 (us)",
                      "rx-cpu util"});

  std::string softnet_stat;
  telemetry::LatencyBreakdown breakdown;
  auto row = [&](const char* label, kernel::NapiMode mode, bool busy,
                 bool instrument = false) {
    harness::PriorityScenarioConfig cfg;
    cfg.mode = mode;
    cfg.busy = busy;
    cfg.duration = sim::milliseconds(300);
    if (instrument && trace_out != nullptr) cfg.trace_out = trace_out;
    const auto r = harness::run_priority_scenario(cfg);
    if (instrument && telemetry) softnet_stat = r.server_softnet_stat;
    if (instrument) breakdown = r.server_latency;
    const auto s = stats::summarize(r.latency);
    table.add_row({label,
                   stats::Table::cell(static_cast<double>(s.p50_ns) / 1e3),
                   stats::Table::cell(s.mean_ns / 1e3),
                   stats::Table::cell(static_cast<double>(s.p99_ns) / 1e3),
                   stats::Table::cell(r.rx_cpu_utilization * 100.0) + "%"});
  };

  row("idle   / vanilla", kernel::NapiMode::kVanilla, false);
  row("busy   / vanilla", kernel::NapiMode::kVanilla, true);
  row("busy   / prism-batch", kernel::NapiMode::kPrismBatch, true);
  row("busy   / prism-sync", kernel::NapiMode::kPrismSync, true,
      /*instrument=*/true);

  std::printf("%s\n", table.render().c_str());
  if (breakdown.enabled) {
    std::printf("where the time goes (busy / prism-sync, server side):\n%s\n",
                telemetry::render_latency_breakdown(breakdown).c_str());
  }
  if (telemetry) {
    std::printf("server softnet_stat (busy / prism-sync):\n%s\n",
                softnet_stat.c_str());
  }
  if (trace_out != nullptr) {
    std::printf("wrote Chrome trace of the busy/prism-sync run to %s\n",
                trace_out);
  }
  std::printf(
      "PRISM reduces the latency of high-priority flows under load by\n"
      "preempting low-priority batches (prism-batch) or running their\n"
      "pipeline stages to completion (prism-sync). See DESIGN.md.\n");
  return 0;
}
