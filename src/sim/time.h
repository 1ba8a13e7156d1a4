// Simulated-time primitives.
//
// The whole simulator operates on a single integer timeline with nanosecond
// resolution. Using a strong-ish alias (int64_t) keeps arithmetic cheap and
// exact; helpers below convert from human-friendly units.
#pragma once

#include <cstdint>

namespace prism::sim {

/// Simulated time in nanoseconds since the start of the run.
using Time = std::int64_t;

/// A duration in nanoseconds. Same representation as Time; the alias only
/// documents intent at API boundaries.
using Duration = std::int64_t;

constexpr Duration kNanosecond = 1;
constexpr Duration kMicrosecond = 1'000;
constexpr Duration kMillisecond = 1'000'000;
constexpr Duration kSecond = 1'000'000'000;

constexpr Duration nanoseconds(std::int64_t n) { return n; }
constexpr Duration microseconds(std::int64_t n) { return n * kMicrosecond; }
constexpr Duration milliseconds(std::int64_t n) { return n * kMillisecond; }
constexpr Duration seconds(std::int64_t n) { return n * kSecond; }

/// Converts a duration to fractional milliseconds (for reporting).
constexpr double to_ms(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

/// Converts a duration to fractional seconds (for reporting).
constexpr double to_s(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

}  // namespace prism::sim
