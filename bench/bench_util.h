// Shared helpers for the figure-reproduction and chaos benches.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/experiment.h"
#include "harness/testbed.h"
#include "sim/time.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "telemetry/latency.h"

namespace prism::bench {

/// Strict decimal parse of a full C string (optional leading '-', no
/// whitespace, no trailing garbage, no overflow). `what` names the flag
/// or environment variable in the error; malformed input terminates the
/// bench with exit code 2 instead of silently running with a default —
/// a mistyped `--threads=abc` or `PRISM_SEED=1e6` must not produce a
/// plausible-looking result under the wrong configuration.
inline long parse_long_or_die(const char* text, const char* what) {
  const char* end = text + std::strlen(text);
  long value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value, 10);
  if (ec == std::errc::result_out_of_range) {
    std::fprintf(stderr, "error: %s: value '%s' out of range\n", what,
                 text);
    std::exit(2);
  }
  if (ec != std::errc{} || ptr != end || text == end) {
    std::fprintf(stderr,
                 "error: %s: expected an integer, got '%s'\n", what, text);
    std::exit(2);
  }
  return value;
}

/// Generic `--flag N` / `--flag=N` integer parser for the bench flags
/// below. Returns `fallback` when the flag is absent; a present flag
/// with a malformed value exits with an error.
inline long parse_long_flag(int argc, char** argv, const char* flag,
                            long fallback) {
  const std::size_t len = std::strlen(flag);
  long value = fallback;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      value = parse_long_or_die(argv[i + 1], flag);
    } else if (std::strncmp(argv[i], flag, len) == 0 &&
               argv[i][len] == '=') {
      value = parse_long_or_die(argv[i] + len + 1, flag);
    }
  }
  return value;
}

/// `--trace-flows N`: flight-recorder sampling period — trace 1-in-N
/// low-priority flows (high-priority classes are always traced). 0 keeps
/// the recorder default (64).
inline std::uint32_t parse_trace_flows(int argc, char** argv) {
  const long v = parse_long_flag(argc, argv, "--trace-flows", 0);
  return v > 0 ? static_cast<std::uint32_t>(v) : 0;
}

/// `--slo-us U`: arm the per-class p99 SLO-breach detector at U
/// microseconds (0 = detector off, the default).
inline sim::Duration parse_slo_us(int argc, char** argv) {
  const long v = parse_long_flag(argc, argv, "--slo-us", 0);
  return v > 0 ? sim::microseconds(v) : 0;
}

/// `--inversion-us T`: the priority-inversion wait threshold. The
/// figure benches default to 50us — between the idle end-to-end p99
/// (~20us) and the vanilla probe's loaded stage-queue waits — rather
/// than the recorder-wide 100us default, which only the NIC ring ever
/// exceeds at fig09/fig10 load levels.
inline sim::Duration parse_inversion_us(int argc, char** argv,
                                        long default_us) {
  const long v = parse_long_flag(argc, argv, "--inversion-us", default_us);
  return v > 0 ? sim::microseconds(v) : sim::microseconds(default_us);
}

/// `--seed S`: fault-injection seed for the detector-armed runs (also
/// honors PRISM_SEED; the flag wins). Default 1. Malformed or
/// non-positive values exit with an error.
inline std::uint64_t parse_seed(int argc, char** argv) {
  long seed = 1;
  if (const char* env = std::getenv("PRISM_SEED")) {
    seed = parse_long_or_die(env, "PRISM_SEED");
  }
  seed = parse_long_flag(argc, argv, "--seed", seed);
  if (seed < 1) {
    std::fprintf(stderr, "error: --seed: %ld must be >= 1\n", seed);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(seed);
}

inline std::string us(std::int64_t ns) {
  return stats::Table::cell(static_cast<double>(ns) / 1e3);
}

inline std::string us(double ns) { return stats::Table::cell(ns / 1e3); }

inline std::string pct(double fraction) {
  return stats::Table::cell(fraction * 100.0, 0) + "%";
}

inline std::string kpps(double pps) {
  return stats::Table::cell(pps / 1e3, 0);
}

inline void add_latency_row(stats::Table& table, const std::string& label,
                            const stats::Histogram& h,
                            const std::string& extra = "") {
  const auto s = stats::summarize(h);
  std::vector<std::string> row{label,        us(s.min_ns), us(s.mean_ns),
                               us(s.p50_ns), us(s.p90_ns), us(s.p99_ns)};
  if (!extra.empty()) row.push_back(extra);
  table.add_row(std::move(row));
}

inline void print_header(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("==============================================================\n");
}

/// Server-side per-stage latency attribution for one scenario run —
/// the measured answer to "where does the time go" that the figure
/// discussions previously inferred from end-to-end numbers alone.
inline void print_latency_breakdown(
    const char* label, const telemetry::LatencyBreakdown& b) {
  std::printf("latency_breakdown [%s]:\n%s\n", label,
              telemetry::render_latency_breakdown(b).c_str());
}

/// The windowed p50/p99-vs-time series from the same snapshot.
inline void print_latency_windows(const char* label,
                                  const telemetry::LatencyBreakdown& b) {
  std::printf("latency_windows [%s]:\n%s\n", label,
              telemetry::render_latency_windows(b).c_str());
}

/// One line per configuration of the detector-armed runs: what fired on
/// the server, how bad the worst inversion was.
inline void print_anomaly_summary(const char* label,
                                  const harness::AnomalySummary& a) {
  std::printf(
      "anomalies [%s]: queue_inversions=%llu ring_inversions=%llu "
      "slo_breaches=%llu worst_inversion_wait=%.1fus "
      "(findings=%llu events=%llu)\n",
      label, static_cast<unsigned long long>(a.queue_inversions),
      static_cast<unsigned long long>(a.ring_inversions),
      static_cast<unsigned long long>(a.slo_breaches),
      static_cast<double>(a.max_inversion_wait_ns) / 1e3,
      static_cast<unsigned long long>(a.findings_retained),
      static_cast<unsigned long long>(a.events_recorded));
}

}  // namespace prism::bench
