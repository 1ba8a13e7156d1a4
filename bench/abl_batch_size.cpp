// Ablation: the NAPI batch-size trade-off (paper §II-A1 and §III-B).
//
// Larger batches amortize per-poll overhead (throughput) but lengthen
// multi-stage queueing (latency). This sweep runs the streamlined
// scenario with batch sizes 1..256 and reports both sides of the
// trade-off the paper's batching discussion is built on.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"

int main() {
  using namespace prism;
  bench::print_header("Ablation",
                      "NAPI batch size: latency vs throughput trade-off");

  stats::Table table({"batch", "p50(us)", "p99(us)", "delivered Kpps",
                      "max Kpps", "rx-cpu"});
  for (const int batch : {1, 4, 16, 64, 128, 256}) {
    kernel::CostModel cost;
    cost.napi_batch_size = batch;

    harness::StreamlinedScenarioConfig cfg;
    cfg.mode = kernel::NapiMode::kVanilla;
    cfg.rate_pps = 300'000;
    cfg.duration = sim::milliseconds(300);
    cfg.cost = cost;
    const auto at_300k = harness::run_streamlined_scenario(cfg);

    cfg.rate_pps = 550'000;  // saturating: delivered == capacity
    const auto saturated = harness::run_streamlined_scenario(cfg);

    table.add_row({std::to_string(batch),
                   bench::us(at_300k.latency.percentile(0.5)),
                   bench::us(at_300k.latency.percentile(0.99)),
                   bench::kpps(at_300k.delivered_pps),
                   bench::kpps(saturated.delivered_pps),
                   bench::pct(at_300k.rx_cpu_utilization)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Small batches forfeit amortization (max rate drops); large batches\n"
      "lengthen per-stage queueing (p99 grows). The kernel default of 64\n"
      "sits near the throughput plateau — the paper's motivation for\n"
      "priority-aware scheduling instead of batch-size tuning.\n");
  return 0;
}
