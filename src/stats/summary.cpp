#include "stats/summary.h"

#include <cstdio>

#include "stats/histogram.h"

namespace prism::stats {

LatencySummary summarize(const Histogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.min_ns = h.min();
  s.mean_ns = h.mean();
  s.p50_ns = h.percentile(0.50);
  s.p90_ns = h.percentile(0.90);
  s.p99_ns = h.percentile(0.99);
  s.p999_ns = h.percentile(0.999);
  s.max_ns = h.max();
  return s;
}

std::string to_string(const LatencySummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu min=%.1fus mean=%.1fus p50=%.1fus p90=%.1fus "
                "p99=%.1fus p99.9=%.1fus max=%.1fus",
                static_cast<unsigned long long>(s.count),
                static_cast<double>(s.min_ns) / 1e3, s.mean_ns / 1e3,
                static_cast<double>(s.p50_ns) / 1e3,
                static_cast<double>(s.p90_ns) / 1e3,
                static_cast<double>(s.p99_ns) / 1e3,
                static_cast<double>(s.p999_ns) / 1e3,
                static_cast<double>(s.max_ns) / 1e3);
  return buf;
}

}  // namespace prism::stats
