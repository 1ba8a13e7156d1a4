// Invariant monitors shared by the chaos bench's profiles and the tests:
// failed-check counting, pool-leak baselines, per-class packet
// conservation over a set of hosts, overload-governor recovery, the proc
// snapshot that determinism checks compare, and the anomaly-trace export.
//
// A monitor that fails prints "FAIL: <what>" and is counted; a bench
// exits non-zero when failures() is above 0.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "fault/fault.h"

namespace prism::kernel {
class Host;
class OverloadGovernor;
}  // namespace prism::kernel

namespace prism::telemetry {
class AnomalyBank;
}  // namespace prism::telemetry

namespace prism::harness {

/// Counts a failed monitor and prints "FAIL: <what>".
void check(bool ok, const std::string& what);

/// Monitors failed so far in this process.
int failures() noexcept;

/// Objects the calling thread's skb and buffer pools have handed out and
/// not taken back. A run that leaks nothing leaves both counts where it
/// found them.
struct PoolBaseline {
  std::uint64_t skb_outstanding = 0;
  std::uint64_t buf_outstanding = 0;

  static PoolBaseline capture();
};

/// Checks that both pools are back at `before`.
void check_no_pool_leak(const PoolBaseline& before, const std::string& tag);

/// Per-class packet conservation over a set of hosts:
///
///     sends + injected duplicates == socket deliveries + ledgered drops
///
/// The caller fills `sent` and `delivered` from its applications and
/// sockets; add_host() adds one host's duplicates and drops.
struct Conservation {
  using PerClass = std::array<std::uint64_t, fault::kNumFaultClasses>;

  PerClass sent{};
  PerClass duplicates{};
  PerClass delivered{};
  PerClass dropped{};

  void add_host(const kernel::Host& host);

  /// One check for each class below `classes`.
  void check_classes(const std::string& tag,
                     int classes = fault::kNumFaultClasses) const;
  /// One check over every class together.
  void check_total(const std::string& tag) const;

  static std::uint64_t sum(const PerClass& v) noexcept;
};

/// Recovery: every overload entry was matched by an exit (taken only with
/// the backlog back below the low watermark) and the governor ends in the
/// normal state.
void check_governor_recovered(const kernel::OverloadGovernor& governor,
                              const std::string& tag);

/// The proc documents at `paths`, each followed by a newline: what a
/// determinism check compares across reruns.
std::string proc_snapshot(kernel::Host& host,
                          std::initializer_list<std::string_view> paths);

/// Writes `bank`'s findings as a Chrome trace to the file named by
/// PRISM_ANOMALY_TRACE_OUT and prints the path; does nothing when the
/// variable is unset. A file that cannot be written fails a check.
void export_anomaly_trace(const telemetry::AnomalyBank& bank);

}  // namespace prism::harness
