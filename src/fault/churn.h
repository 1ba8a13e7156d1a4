// Seeded, deterministic container lifecycle churn plans.
//
// A ChurnPlan is to control-plane chaos what FaultPlan is to datapath
// faults: a pure function of (config, seed) that expands into a sorted
// schedule of container stop/restart/migrate events over a cluster. The
// plan only *decides*; applying the events to hosts is the harness's job
// (harness/churn.h), which does so between run_until calls so the same
// plan yields byte-identical results at any thread count.
//
// Each disruption of a container is either a stop/restart cycle (kStop at
// t, kRestart at t + drain + restart_delay) or a migration (kMigrate at
// t: the container drains on its current host and a new incarnation comes
// up on the pair's other host immediately). Disruptions of one container
// never overlap: the slot layout guarantees a full cycle completes before
// the next disruption of the same container begins, and the final cycle
// finishes before `horizon`.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace prism::fault {

enum class ChurnKind : int { kStop = 0, kRestart, kMigrate };

const char* churn_kind_name(ChurnKind k) noexcept;

/// One scheduled lifecycle event. `pair` and `container` index into the
/// harness's registry of churnable containers; the plan itself knows
/// nothing about hosts or namespaces.
struct ChurnEvent {
  sim::Time at = 0;
  ChurnKind kind = ChurnKind::kStop;
  int pair = 0;
  int container = 0;
};

struct ChurnConfig {
  std::uint64_t seed = 1;

  /// Churn window: no event fires before `start` (workload warmup) and
  /// every cycle completes before `horizon` (conservation cooldown).
  sim::Time start = 0;
  sim::Time horizon = 0;

  /// Churnable-container grid (mirrors the harness's registration).
  int pairs = 1;
  int containers_per_pair = 1;

  /// Stop/restart-or-migrate cycles per container across the window.
  int disruptions_per_container = 1;

  /// Probability that a disruption migrates the container to the pair's
  /// other host instead of stop/restarting it in place.
  double migrate_fraction = 0.5;

  /// Teardown drain (Draining -> Dead) used for both stops and migrations.
  sim::Duration drain = sim::microseconds(200);

  /// Dead -> restart gap for stop/restart cycles.
  sim::Duration restart_delay = sim::microseconds(300);

  /// Minimum quiet time after a cycle completes before the same
  /// container's next disruption.
  sim::Duration min_gap = sim::microseconds(500);
};

/// Expands a ChurnConfig into a sorted, deterministic event schedule.
class ChurnPlan {
 public:
  ChurnPlan() = default;

  /// Rebuilds the schedule from `cfg`. The event sequence is a pure
  /// function of the config (including its seed).
  void configure(const ChurnConfig& cfg);

  const ChurnConfig& config() const noexcept { return cfg_; }
  const std::vector<ChurnEvent>& events() const noexcept { return events_; }

  /// Events of one kind (stops == restarts by construction).
  std::size_t count(ChurnKind k) const noexcept;

 private:
  ChurnConfig cfg_;
  std::vector<ChurnEvent> events_;
};

}  // namespace prism::fault
