// Reproduces Fig. 11: effect of changing background load on high-priority
// latency.
//
// Paper setup: sweep the low-priority background rate; plot min/avg/p99
// of the high-priority flow's latency plus the packet-processing core's
// utilization. Paper result: a latency bump at very low load (CPU
// sleep-wake cycles), a steady decline as the core stays awake, explosion
// at overload; PRISM's tail tracks vanilla's average, PRISM's average
// tracks vanilla's minimum.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"

int main() {
  using namespace prism;
  bench::print_header("Figure 11",
                      "high-priority latency vs background load");

  const double rates_kpps[] = {0, 10, 25, 50, 100, 150, 200,
                               250, 300, 350, 400, 450};

  // Three arms: the paper's vanilla/PRISM-sync pair, plus PRISM-sync
  // with the overlay flow cache on (cached flows skip stages 2-3; the
  // fc-hit column reports the server cache's steady-state hit rate).
  const struct {
    kernel::NapiMode mode;
    bool cache;
    const char* label;
  } arms[] = {{kernel::NapiMode::kVanilla, false, "vanilla"},
              {kernel::NapiMode::kPrismSync, false, "prism-sync"},
              {kernel::NapiMode::kPrismSync, true, "prism-sync + cache"}};
  for (const auto& arm : arms) {
    std::printf("mode: %s\n", arm.label);
    stats::Table table({"bg rate (Kpps)", "rx-cpu", "min(us)", "mean(us)",
                        "p99(us)", "ring drops", "fc-hit"});
    telemetry::LatencyBreakdown at_300;
    for (const double r : rates_kpps) {
      harness::PriorityScenarioConfig cfg;
      cfg.mode = arm.mode;
      cfg.busy = r > 0;
      cfg.bg_rate_pps = r * 1e3;
      cfg.duration = sim::milliseconds(300);
      cfg.latency_window = sim::milliseconds(25);
      cfg.flow_cache = arm.cache;
      const auto res = harness::run_priority_scenario(cfg);
      const auto s = stats::summarize(res.latency);
      table.add_row({stats::Table::cell(r, 0),
                     bench::pct(res.rx_cpu_utilization), bench::us(s.min_ns),
                     bench::us(s.mean_ns), bench::us(s.p99_ns),
                     std::to_string(res.server_ring_drops),
                     arm.cache ? bench::pct(res.server_flowcache_hit_rate)
                               : "-"});
      if (r == 300) at_300 = res.server_latency;
    }
    std::printf("%s\n", table.render().c_str());
    // The representative 300 Kpps point, attributed per stage and over
    // time (25 ms windows) — the measured form of the sweep's story.
    bench::print_latency_breakdown("bg 300 Kpps", at_300);
    bench::print_latency_windows("bg 300 Kpps", at_300);
  }
  return 0;
}
