// Experiment scenarios reproducing the paper's evaluation (§V).
//
// Each runner builds a fresh testbed, deploys the paper's workload
// combination, runs it for a warmup + measurement window, and returns the
// metrics the corresponding figure reports. Benches and examples call
// these; tests assert their qualitative claims.
#pragma once

#include <cstdint>
#include <string>

#include "kernel/cost_model.h"
#include "kernel/napi.h"
#include "sim/time.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "telemetry/latency.h"

namespace prism::harness {

// --------------------------------------------------------------------
// Priority-differentiation scenario (Figs. 3, 9, 10, 11): a low-rate
// high-priority probe flow measured against optional low-priority
// background traffic, on the overlay or host path.
// --------------------------------------------------------------------

struct PriorityScenarioConfig {
  kernel::NapiMode mode = kernel::NapiMode::kVanilla;
  bool overlay = true;  ///< container path (3 stages) vs host path (1)
  bool busy = true;     ///< background traffic present?
  double bg_rate_pps = 300'000.0;
  /// Background TX burst size (sockperf --burst; see SockperfClient).
  int bg_burst = 64;
  double probe_rate_pps = 1'000.0;
  std::size_t probe_payload = 64;
  std::size_t bg_payload = 64;
  sim::Duration warmup = sim::milliseconds(50);
  sim::Duration duration = sim::milliseconds(500);
  kernel::CostModel cost{};
  /// > 0: override the server latency ledger's window interval, for
  /// finer/coarser p50/p99-vs-time series (default 10 ms).
  sim::Duration latency_window = 0;
  /// Non-empty: attach a span tracer to both hosts and export the
  /// timeline as Chrome trace_event JSON to this path (Perfetto-loadable).
  std::string trace_out;
  /// Overlay flow cache on both hosts (ONCache-style stage-1 fast path).
  bool flow_cache = false;
  /// Arm the server's flight recorder + anomaly-detector bank with the
  /// settings below (otherwise both keep their always-on defaults:
  /// sample 1/64, inversion threshold 100 us, no SLO target). Detectors
  /// never alter the schedule; arming only changes what gets reported.
  bool arm_detectors = false;
  /// 1-in-N deterministic flow sampling (classes >= 1 always traced).
  std::uint32_t trace_sample_period = 64;
  /// Priority-inversion threshold: one stamp-point wait this long fires.
  sim::Duration inversion_wait_ns = sim::microseconds(100);
  /// Per-class p99 SLO over 1 ms windows (0 = SLO detector off).
  sim::Duration slo_p99_ns = 0;
  /// Mild wire fault injection on the server (drop/duplicate
  /// probabilities), so detector runs see realistic loss; seeded by
  /// fault_seed for reproducible multi-seed tables.
  double wire_drop_rate = 0.0;
  double wire_dup_rate = 0.0;
  std::uint64_t fault_seed = 1;
};

/// Counts of detector firings on the server, lifted from the bank after
/// the run.
struct AnomalySummary {
  std::uint64_t queue_inversions = 0;
  std::uint64_t ring_inversions = 0;
  std::uint64_t slo_breaches = 0;
  std::uint64_t drop_bursts = 0;
  std::uint64_t governor_flaps = 0;
  std::uint64_t findings_retained = 0;
  std::uint64_t events_recorded = 0;
  std::int64_t max_inversion_wait_ns = 0;

  std::uint64_t inversions() const {
    return queue_inversions + ring_inversions;
  }
  std::uint64_t total() const {
    return inversions() + slo_breaches + drop_bursts + governor_flaps;
  }
};

struct PriorityScenarioResult {
  stats::Histogram latency;  ///< probe one-way latency (RTT/2), ns
  double rx_cpu_utilization = 0.0;  ///< server packet-processing core
  std::uint64_t probes_sent = 0;
  std::uint64_t replies = 0;
  std::uint64_t bg_sent = 0;
  std::uint64_t bg_received = 0;
  std::uint64_t server_ring_drops = 0;
  /// The server's /proc/net/softnet_stat rendering at the end of the run.
  std::string server_softnet_stat;
  /// Server-side per-stage latency attribution over the measurement
  /// window (warmup excluded).
  telemetry::LatencyBreakdown server_latency;
  /// Detector firings on the server over the measurement window (warmup
  /// excluded; always filled — the default bank detects inversions).
  AnomalySummary server_anomalies;
  /// Server overlay flow-cache counters over the whole run (zero when the
  /// cache is off).
  std::uint64_t server_flowcache_hits = 0;
  std::uint64_t server_flowcache_misses = 0;
  std::uint64_t server_flowcache_invalidations = 0;
  double server_flowcache_hit_rate = 0.0;
};

PriorityScenarioResult run_priority_scenario(
    const PriorityScenarioConfig& cfg);

// --------------------------------------------------------------------
// Streamlined-processing scenario (Fig. 8): one 300 Kpps overlay flow
// (marked high priority) with sampled latency, no background traffic.
// Also used for the max-throughput sweep.
// --------------------------------------------------------------------

struct StreamlinedScenarioConfig {
  kernel::NapiMode mode = kernel::NapiMode::kVanilla;
  double rate_pps = 300'000.0;
  std::size_t payload = 64;
  int reply_every = 100;  ///< sockperf under-load sampling
  sim::Duration warmup = sim::milliseconds(50);
  sim::Duration duration = sim::milliseconds(500);
  kernel::CostModel cost{};
  /// Overlay flow cache on both hosts (ONCache-style stage-1 fast path).
  bool flow_cache = false;
};

struct StreamlinedScenarioResult {
  stats::Histogram latency;        ///< sampled one-way latency, ns
  double delivered_pps = 0.0;      ///< goodput at the server application
  double offered_pps = 0.0;        ///< achieved client send rate
  double rx_cpu_utilization = 0.0;
  std::uint64_t server_ring_drops = 0;
  /// Server-side per-stage latency attribution (warmup excluded).
  telemetry::LatencyBreakdown server_latency;
  /// Server overlay flow-cache counters over the whole run (zero when the
  /// cache is off).
  std::uint64_t server_flowcache_hits = 0;
  std::uint64_t server_flowcache_misses = 0;
  std::uint64_t server_flowcache_invalidations = 0;
  double server_flowcache_hit_rate = 0.0;
};

StreamlinedScenarioResult run_streamlined_scenario(
    const StreamlinedScenarioConfig& cfg);

// --------------------------------------------------------------------
// Memcached scenario (Fig. 12): memaslap-style closed loop against a
// containerized KV store, with optional background traffic.
// --------------------------------------------------------------------

struct MemcachedScenarioConfig {
  kernel::NapiMode mode = kernel::NapiMode::kVanilla;
  bool busy = true;
  double bg_rate_pps = 300'000.0;
  int bg_burst = 64;
  int concurrency = 4;
  double get_ratio = 0.9;
  std::size_t value_size = 1024;
  sim::Duration warmup = sim::milliseconds(50);
  sim::Duration duration = sim::milliseconds(500);
  kernel::CostModel cost{};
  std::uint64_t seed = 1;
};

struct MemcachedScenarioResult {
  stats::Histogram latency;  ///< request RTT, ns
  double ops_per_second = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  double rx_cpu_utilization = 0.0;
  /// Server-side per-stage latency attribution (warmup excluded).
  telemetry::LatencyBreakdown server_latency;
};

MemcachedScenarioResult run_memcached_scenario(
    const MemcachedScenarioConfig& cfg);

// --------------------------------------------------------------------
// Web-server scenario (Fig. 13): wrk2-style constant-rate HTTP over one
// TCP connection, against TCP bulk background traffic (64 KB messages,
// TSO-fragmented).
// --------------------------------------------------------------------

struct WebScenarioConfig {
  kernel::NapiMode mode = kernel::NapiMode::kVanilla;
  bool busy = true;
  double bg_rate_mps = 20'000.0;  ///< background messages (64 KB) per sec
  std::size_t bg_message_size = 64 * 1024;
  double web_rate_rps = 20'000.0;
  std::size_t response_size = 1024;
  sim::Duration warmup = sim::milliseconds(50);
  sim::Duration duration = sim::milliseconds(500);
  kernel::CostModel cost{};
};

struct WebScenarioResult {
  stats::Histogram latency;  ///< response time from scheduled send, ns
  double requests_per_second = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  double rx_cpu_utilization = 0.0;
  std::uint64_t bg_bytes_received = 0;
  /// Server-side per-stage latency attribution (warmup excluded).
  telemetry::LatencyBreakdown server_latency;
};

WebScenarioResult run_web_scenario(const WebScenarioConfig& cfg);

}  // namespace prism::harness
