// Compact latency summaries for experiment reporting.
#pragma once

#include <cstdint>
#include <string>

namespace prism::stats {

class Histogram;

/// The latency statistics every experiment in the paper reports.
struct LatencySummary {
  std::uint64_t count = 0;
  std::int64_t min_ns = 0;
  double mean_ns = 0.0;
  std::int64_t p50_ns = 0;
  std::int64_t p90_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t p999_ns = 0;
  std::int64_t max_ns = 0;
};

/// Extracts the standard summary from a histogram.
LatencySummary summarize(const Histogram& h);

/// One-line human-readable rendering in microseconds, e.g.
/// "n=1000 min=12.3us mean=45.6us p50=40.1us p99=120.4us max=300.0us".
std::string to_string(const LatencySummary& s);

}  // namespace prism::stats
