// Counters, gauges, and the registry that indexes them by name.
//
// The paper's analysis leans on kernel counters (softnet_stat, ring drops,
// NAPI budget exhaustion) to explain where time and packets go. Like the
// kernel, the simulated stack keeps each of these numbers once, in the
// component whose datapath updates it: a Counter or Gauge member that the
// hot path bumps with a plain add and the component's accessor reads.
//
// A Registry stores no values. Each component's bind_telemetry() adds its
// members under their names (cold path), and snapshots read the members
// through those entries. Components may share a name: every UDP socket
// under "sockets.", the per-CPU stages and cells of one bridge. Snapshots
// merge a shared name in first-seen order: counters and gauge levels sum,
// and a gauge's high-water mark is the largest of the members' marks.
//
// Counters and gauges always count; the per-packet recorders are switched
// at run time (see telemetry.h).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Always 1 (the telemetry recorders are always compiled in and switched at
// run time); perfbench's build banner prints it.
#define PRISM_TELEMETRY_ENABLED 1

namespace prism::telemetry {

/// Monotonic event counter, owned by the component that counts. Neither
/// copyable nor movable, so a registry entry can never dangle behind a
/// moved-from member.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Level gauge with a high-watermark, for queue/backlog depths.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    value_ = v;
    if (v > max_) max_ = v;
  }

  std::int64_t value() const noexcept { return value_; }
  std::int64_t max_value() const noexcept { return max_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Snapshot of one named counter.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

/// Snapshot of one named gauge.
struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max_value = 0;
};

/// Name index over component-owned counters and gauges. Every added
/// member must outlive the registry's last snapshot (components and the
/// registry live in the same Host).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Indexes `counter` under `name`. Re-adding the same member under the
  /// same name is a no-op, so binding a component twice never counts it
  /// twice.
  void add(std::string_view name, const Counter& counter);
  void add(std::string_view name, const Gauge& gauge);

  /// Sum of the counters added under `name`; 0 when the name is unknown.
  std::uint64_t counter_value(std::string_view name) const noexcept;

  /// One sample per distinct name, in first-registration order.
  std::vector<CounterSample> counters() const;
  std::vector<GaugeSample> gauges() const;

 private:
  std::vector<std::pair<std::string, const Counter*>> counters_;
  std::vector<std::pair<std::string, const Gauge*>> gauges_;
};

}  // namespace prism::telemetry
