// Reproduces Fig. 3: latency distribution of packets in the presence and
// absence of background traffic (vanilla kernel, container overlay path).
//
// Paper result: compared to an idle server, a loaded server increases the
// median overlay per-packet latency by ~400% and the 99th-percentile by
// ~450%. The figure is the motivating measurement for PRISM.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"
#include "stats/cdf.h"

int main() {
  using namespace prism;
  bench::print_header(
      "Figure 3",
      "latency CDF with and without background traffic (vanilla)");

  harness::PriorityScenarioConfig idle_cfg;
  idle_cfg.mode = kernel::NapiMode::kVanilla;
  idle_cfg.busy = false;
  const auto idle = harness::run_priority_scenario(idle_cfg);

  harness::PriorityScenarioConfig busy_cfg = idle_cfg;
  busy_cfg.busy = true;
  const auto busy = harness::run_priority_scenario(busy_cfg);

  std::printf("latency CDF (one-way us):\n%s\n",
              stats::render_cdf_table({"idle", "busy"},
                                      {&idle.latency, &busy.latency})
                  .c_str());

  const auto is = stats::summarize(idle.latency);
  const auto bs = stats::summarize(busy.latency);
  std::printf(
      "idle:  p50 %.1fus  p99 %.1fus\n"
      "busy:  p50 %.1fus  p99 %.1fus   (bg consumes %.0f%% of the rx core)\n"
      "busy/idle: median %+.0f%%, p99 %+.0f%%  (paper: ~+400%% / ~+450%%)\n",
      static_cast<double>(is.p50_ns) / 1e3,
      static_cast<double>(is.p99_ns) / 1e3,
      static_cast<double>(bs.p50_ns) / 1e3,
      static_cast<double>(bs.p99_ns) / 1e3, busy.rx_cpu_utilization * 100,
      100.0 * static_cast<double>(bs.p50_ns - is.p50_ns) /
          static_cast<double>(is.p50_ns),
      100.0 * static_cast<double>(bs.p99_ns - is.p99_ns) /
          static_cast<double>(is.p99_ns));

  std::printf("\n");
  bench::print_latency_breakdown("idle", idle.server_latency);
  bench::print_latency_breakdown("busy", busy.server_latency);
  return 0;
}
