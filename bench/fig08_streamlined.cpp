// Reproduces Fig. 8: performance comparison of Vanilla, PRISM-batch and
// PRISM-sync in the absence of low-priority background traffic.
//
// Paper setup: one packet-processing core, one application core; a
// constant 300 Kpps containerized flow, latency sampled via sockperf's
// under-load mode; separately, the maximum per-core packet rate.
//
// Paper result: PRISM-sync cuts median and tail latency ~50% vs Vanilla
// with PRISM-batch in between; max throughput is ~400 Kpps for Vanilla
// and PRISM-batch but only ~300 Kpps for PRISM-sync (no batching).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "harness/experiment.h"

int main() {
  using namespace prism;
  bench::print_header(
      "Figure 8", "Vanilla vs PRISM-batch vs PRISM-sync, no background");

  // --- latency at a constant 300 Kpps ---------------------------------
  // Each mode runs A/B: flow cache off (the paper's pipeline) and on
  // (ONCache-style stage-1 fast path). The long-lived single flow is the
  // cache's best case — one compulsory miss, then hits until the end.
  stats::Table lat({"mode", "min(us)", "mean(us)", "p50(us)", "p90(us)",
                    "p99(us)", "rx-cpu", "fc-hit"});
  std::vector<std::pair<std::string, telemetry::LatencyBreakdown>>
      breakdowns;
  for (const auto mode :
       {kernel::NapiMode::kVanilla, kernel::NapiMode::kPrismBatch,
        kernel::NapiMode::kPrismSync}) {
    for (const bool cache : {false, true}) {
      harness::StreamlinedScenarioConfig cfg;
      cfg.mode = mode;
      cfg.rate_pps = 300'000;
      cfg.flow_cache = cache;
      const auto r = harness::run_streamlined_scenario(cfg);
      const std::string label =
          std::string(kernel::to_string(mode)) + (cache ? "+cache" : "");
      std::vector<std::string> row{label};
      const auto s = stats::summarize(r.latency);
      row.insert(row.end(),
                 {bench::us(s.min_ns), bench::us(s.mean_ns),
                  bench::us(s.p50_ns), bench::us(s.p90_ns),
                  bench::us(s.p99_ns), bench::pct(r.rx_cpu_utilization),
                  cache ? bench::pct(r.server_flowcache_hit_rate) : "-"});
      lat.add_row(std::move(row));
      breakdowns.emplace_back(label, r.server_latency);
      if (cache) {
        std::printf(
            "flow cache [%s]: hits=%llu misses=%llu invalidations=%llu "
            "hit_rate=%.2f%%\n",
            label.c_str(),
            static_cast<unsigned long long>(r.server_flowcache_hits),
            static_cast<unsigned long long>(r.server_flowcache_misses),
            static_cast<unsigned long long>(
                r.server_flowcache_invalidations),
            100.0 * r.server_flowcache_hit_rate);
      }
    }
  }
  std::printf("\nlatency of the 300 Kpps flow:\n%s\n", lat.render().c_str());
  for (const auto& [label, b] : breakdowns) {
    bench::print_latency_breakdown(label.c_str(), b);
  }

  // --- max per-core throughput -----------------------------------------
  std::printf("per-core throughput (delivered Kpps vs offered Kpps):\n");
  stats::Table tput({"offered", "vanilla", "prism-batch", "prism-sync",
                     "sync+cache"});
  double max_rate[4] = {0, 0, 0, 0};
  for (double offered = 250'000; offered <= 550'000; offered += 50'000) {
    std::vector<std::string> row{bench::kpps(offered)};
    int i = 0;
    const struct {
      kernel::NapiMode mode;
      bool cache;
    } arms[] = {{kernel::NapiMode::kVanilla, false},
                {kernel::NapiMode::kPrismBatch, false},
                {kernel::NapiMode::kPrismSync, false},
                {kernel::NapiMode::kPrismSync, true}};
    for (const auto& arm : arms) {
      harness::StreamlinedScenarioConfig cfg;
      cfg.mode = arm.mode;
      cfg.rate_pps = offered;
      cfg.duration = sim::milliseconds(300);
      cfg.flow_cache = arm.cache;
      const auto r = harness::run_streamlined_scenario(cfg);
      row.push_back(bench::kpps(r.delivered_pps));
      max_rate[i] = std::max(max_rate[i], r.delivered_pps);
      ++i;
    }
    tput.add_row(std::move(row));
  }
  std::printf("%s\n", tput.render().c_str());
  std::printf(
      "max per-core rate: vanilla %.0f Kpps, prism-batch %.0f Kpps, "
      "prism-sync %.0f Kpps, sync+cache %.0f Kpps\n"
      "(paper: ~400 / ~400 / ~300 Kpps; the cache lifts sync by skipping "
      "stages 2-3 for cached flows)\n",
      max_rate[0] / 1e3, max_rate[1] / 1e3, max_rate[2] / 1e3,
      max_rate[3] / 1e3);
  return 0;
}
