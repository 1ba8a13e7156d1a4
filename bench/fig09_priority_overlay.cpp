// Reproduces Fig. 9: per-packet latency of high-priority container
// (overlay) traffic in the presence of low-priority background traffic.
//
// Paper setup (§V-B2): single packet-processing core on the server; a
// containerized 1 Kpps high-priority sockperf ping-pong flow, competing
// with ~300 Kpps of low-priority background traffic. Reported: latency
// CDF per mode plus the idle reference.
//
// Paper result: busy vanilla latency is several times the idle latency;
// PRISM-sync cuts both average and tail by ~50% vs vanilla; PRISM-batch
// is closer to sync on average than at the tail.
#include <cstdio>

#include "bench_util.h"
#include "harness/experiment.h"
#include "stats/cdf.h"

int main(int argc, char** argv) {
  using namespace prism;
  bench::print_header(
      "Figure 9", "high-priority overlay latency vs background traffic");

  // Detector-armed reproduction: --seed S picks the wire-fault stream,
  // --trace-flows N widens/narrows sampling, --slo-us U arms the SLO
  // detector. Detectors observe only — the CDFs are unchanged by them.
  const std::uint64_t seed = bench::parse_seed(argc, argv);
  const std::uint32_t trace_flows = bench::parse_trace_flows(argc, argv);
  const sim::Duration slo = bench::parse_slo_us(argc, argv);
  const sim::Duration inv = bench::parse_inversion_us(argc, argv, 50);

  auto run = [&](kernel::NapiMode mode, bool busy, bool cache = false) {
    harness::PriorityScenarioConfig cfg;
    cfg.mode = mode;
    cfg.busy = busy;
    cfg.overlay = true;
    cfg.flow_cache = cache;
    cfg.arm_detectors = true;
    if (trace_flows > 0) cfg.trace_sample_period = trace_flows;
    cfg.slo_p99_ns = slo;
    cfg.inversion_wait_ns = inv;
    // Mild wire loss so the detector-armed runs exercise drop recording
    // too; seeded so multi-seed tables reproduce exactly.
    cfg.wire_drop_rate = 0.005;
    cfg.wire_dup_rate = 0.002;
    cfg.fault_seed = seed;
    return harness::run_priority_scenario(cfg);
  };

  const auto idle = run(kernel::NapiMode::kVanilla, false);
  const auto vanilla = run(kernel::NapiMode::kVanilla, true);
  const auto batch = run(kernel::NapiMode::kPrismBatch, true);
  const auto sync = run(kernel::NapiMode::kPrismSync, true);
  // Third arm of the paper-vs-extension comparison: PRISM-sync with the
  // ONCache-style overlay flow cache on — cached flows skip stages 2-3.
  const auto cached = run(kernel::NapiMode::kPrismSync, true, true);

  stats::Table table({"configuration", "min(us)", "mean(us)", "p50(us)",
                      "p90(us)", "p99(us)", "rx-cpu"});
  bench::add_latency_row(table, "idle (reference)", idle.latency,
                         bench::pct(idle.rx_cpu_utilization));
  bench::add_latency_row(table, "busy vanilla", vanilla.latency,
                         bench::pct(vanilla.rx_cpu_utilization));
  bench::add_latency_row(table, "busy prism-batch", batch.latency,
                         bench::pct(batch.rx_cpu_utilization));
  bench::add_latency_row(table, "busy prism-sync", sync.latency,
                         bench::pct(sync.rx_cpu_utilization));
  bench::add_latency_row(table, "busy prism-sync + cache", cached.latency,
                         bench::pct(cached.rx_cpu_utilization));
  std::printf("%s\n", table.render().c_str());

  std::printf("flow cache [busy prism-sync + cache]: hits=%llu "
              "misses=%llu invalidations=%llu hit_rate=%.2f%%\n\n",
              static_cast<unsigned long long>(cached.server_flowcache_hits),
              static_cast<unsigned long long>(
                  cached.server_flowcache_misses),
              static_cast<unsigned long long>(
                  cached.server_flowcache_invalidations),
              100.0 * cached.server_flowcache_hit_rate);

  std::printf("latency CDF (one-way us):\n%s\n",
              stats::render_cdf_table(
                  {"idle", "vanilla", "prism-batch", "prism-sync",
                   "sync+cache"},
                  {&idle.latency, &vanilla.latency, &batch.latency,
                   &sync.latency, &cached.latency})
                  .c_str());

  const auto vs = stats::summarize(vanilla.latency);
  const auto ss = stats::summarize(sync.latency);
  const auto bs = stats::summarize(batch.latency);
  const auto cs = stats::summarize(cached.latency);
  std::printf(
      "PRISM-sync vs vanilla (busy): mean %+.0f%%  p99 %+.0f%%\n"
      "PRISM-batch vs vanilla (busy): mean %+.0f%%  p99 %+.0f%%\n"
      "PRISM-sync+cache vs vanilla (busy): mean %+.0f%%  p99 %+.0f%%\n",
      100.0 * (ss.mean_ns - vs.mean_ns) / vs.mean_ns,
      100.0 * static_cast<double>(ss.p99_ns - vs.p99_ns) /
          static_cast<double>(vs.p99_ns),
      100.0 * (bs.mean_ns - vs.mean_ns) / vs.mean_ns,
      100.0 * static_cast<double>(bs.p99_ns - vs.p99_ns) /
          static_cast<double>(vs.p99_ns),
      100.0 * (cs.mean_ns - vs.mean_ns) / vs.mean_ns,
      100.0 * static_cast<double>(cs.p99_ns - vs.p99_ns) /
          static_cast<double>(vs.p99_ns));

  // Where the time goes: the measured per-stage attribution behind the
  // CDFs above (class 3 = the high-priority probe flow). The cache arm's
  // table shows the flow_cache segment replacing stages 2-3.
  std::printf("\n");
  bench::print_latency_breakdown("busy vanilla", vanilla.server_latency);
  bench::print_latency_breakdown("busy prism-batch", batch.server_latency);
  bench::print_latency_breakdown("busy prism-sync", sync.server_latency);
  bench::print_latency_breakdown("busy prism-sync + cache",
                                 cached.server_latency);

  // What the flight recorder saw: the paper's priority-inversion story
  // as detector firings. Vanilla queues the probe behind background
  // bursts (queue inversions); Prism-sync runs it to completion, so only
  // the priority-blind NIC ring can still delay it (ring inversions).
  std::printf("anomaly detectors (seed=%llu):\n",
              static_cast<unsigned long long>(seed));
  bench::print_anomaly_summary("idle", idle.server_anomalies);
  bench::print_anomaly_summary("busy vanilla", vanilla.server_anomalies);
  bench::print_anomaly_summary("busy prism-batch", batch.server_anomalies);
  bench::print_anomaly_summary("busy prism-sync", sync.server_anomalies);
  bench::print_anomaly_summary("busy prism-sync + cache",
                               cached.server_anomalies);
  return 0;
}
