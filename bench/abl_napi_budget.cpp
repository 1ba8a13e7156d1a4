// Ablation: NAPI_BUDGET (paper Fig. 2, line 4).
//
// The budget bounds how many packets one net_rx_action invocation may
// process before re-raising itself. Smaller budgets re-enter the softirq
// machinery more often (more fixed cost), larger budgets let one
// invocation monopolize the core longer.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"

int main() {
  using namespace prism;
  bench::print_header("Ablation", "NAPI_BUDGET sweep (vanilla, busy)");

  stats::Table table({"budget", "probe p50(us)", "probe p99(us)",
                      "rx-cpu", "bg received"});
  for (const int budget : {64, 128, 300, 600, 1200}) {
    kernel::CostModel cost;
    cost.napi_budget = budget;
    harness::PriorityScenarioConfig cfg;
    cfg.mode = kernel::NapiMode::kVanilla;
    cfg.busy = true;
    cfg.duration = sim::milliseconds(300);
    cfg.cost = cost;
    const auto res = harness::run_priority_scenario(cfg);
    table.add_row({std::to_string(budget),
                   bench::us(res.latency.percentile(0.5)),
                   bench::us(res.latency.percentile(0.99)),
                   bench::pct(res.rx_cpu_utilization),
                   std::to_string(res.bg_received)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "The default budget (300) is large enough that the 3-stage overlay\n"
      "cycle (3 x 64 = 192 packets) completes in one invocation; smaller\n"
      "budgets split the cycle across invocations and add softirq entry\n"
      "overhead without improving the probe's position in any queue.\n");
  return 0;
}
