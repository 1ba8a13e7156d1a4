// Reproduces Fig. 13: web server latency and throughput in the presence
// of low-priority background traffic.
//
// Paper setup: nginx-style server in a container serving a <1 KB static
// file; a wrk2-style single-connection client issues constant-rate
// requests (high priority); background is sockperf TCP throughput at
// 20 Kpps with 64 KB messages, TSO-fragmented into MTU frames.
//
// Paper result (busy): PRISM-batch cuts average and tail latency ~14% and
// raises throughput ~15%; PRISM-sync improves latency ~22% and throughput
// ~25% (sync wins on throughput here because the web flow is tiny and
// the batched background still dominates the stack).
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"

int main() {
  using namespace prism;
  bench::print_header(
      "Figure 13", "web latency/throughput under TCP bulk background");

  struct Row {
    const char* label;
    kernel::NapiMode mode;
    bool busy;
  };
  const Row rows[] = {
      {"idle vanilla", kernel::NapiMode::kVanilla, false},
      {"busy vanilla", kernel::NapiMode::kVanilla, true},
      {"busy prism-batch", kernel::NapiMode::kPrismBatch, true},
      {"busy prism-sync", kernel::NapiMode::kPrismSync, true},
  };

  stats::Table table({"configuration", "req/s", "mean(us)", "p50(us)",
                      "p99(us)", "rx-cpu", "bg MB/s"});
  harness::WebScenarioResult res[4];
  int i = 0;
  for (const auto& row : rows) {
    harness::WebScenarioConfig cfg;
    cfg.mode = row.mode;
    cfg.busy = row.busy;
    res[i] = harness::run_web_scenario(cfg);
    const auto s = stats::summarize(res[i].latency);
    const double span = sim::to_s(sim::milliseconds(500) +
                                  sim::milliseconds(20));
    table.add_row(
        {row.label, stats::Table::cell(res[i].requests_per_second, 0),
         bench::us(s.mean_ns), bench::us(s.p50_ns), bench::us(s.p99_ns),
         bench::pct(res[i].rx_cpu_utilization),
         stats::Table::cell(
             static_cast<double>(res[i].bg_bytes_received) / span / 1e6,
             0)});
    ++i;
  }
  std::printf("%s\n", table.render().c_str());

  const auto busy_v = stats::summarize(res[1].latency);
  const auto busy_b = stats::summarize(res[2].latency);
  const auto busy_s = stats::summarize(res[3].latency);
  std::printf(
      "prism-batch vs vanilla (busy): mean %+.0f%%, p99 %+.0f%%, "
      "throughput %+.0f%%   (paper: ~-14%%, ~-14%%, ~+15%%)\n"
      "prism-sync  vs vanilla (busy): mean %+.0f%%, p99 %+.0f%%, "
      "throughput %+.0f%%   (paper: ~-22%%, ~-22%%, ~+25%%)\n",
      100.0 * (busy_b.mean_ns - busy_v.mean_ns) / busy_v.mean_ns,
      100.0 * static_cast<double>(busy_b.p99_ns - busy_v.p99_ns) /
          static_cast<double>(busy_v.p99_ns),
      100.0 * (res[2].requests_per_second - res[1].requests_per_second) /
          res[1].requests_per_second,
      100.0 * (busy_s.mean_ns - busy_v.mean_ns) / busy_v.mean_ns,
      100.0 * static_cast<double>(busy_s.p99_ns - busy_v.p99_ns) /
          static_cast<double>(busy_v.p99_ns),
      100.0 * (res[3].requests_per_second - res[1].requests_per_second) /
          res[1].requests_per_second);

  std::printf("\n");
  bench::print_latency_breakdown("busy vanilla", res[1].server_latency);
  bench::print_latency_breakdown("busy prism-sync", res[3].server_latency);
  return 0;
}
