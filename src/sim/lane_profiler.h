// Wall-clock profiler for the lane engine.
//
// The lane engine (sim/lane.h) answers "was the run correct"; this
// profiler answers "why did it run at this speed". It keeps two kinds of
// exact totals, folded in once per run_until() after the workers join:
//
// - Per lane: the events it executed, the simulated time it advanced and
//   the wall-clock time its worker spent running it (busy). The engine
//   reads the clock once before and once after each lane's run, so the
//   cost is one steady_clock pair per lane per run.
// - Per worker thread: its wall time from the start of the run to the
//   join, the time it spent running lanes (busy) and its wait at the
//   join (barrier_wait). A worker's idle time is the remainder: a parked
//   helper's wake-up, plus thread start-up on the first run with a new
//   thread count.
//
// The LaneSet only touches the profiler through a nullable pointer, and
// only after the join, so a detached engine (LaneSet::set_profiler(
// nullptr)) reads no clock, and the profiler needs no lock.
//
// The profiler accumulates across run_until() calls; reset() starts a
// fresh capture. Snapshots are consumed by telemetry/rollup.{h,cpp}:
// lanes_json() renders the "prism/lanes" proc document and
// export_lane_trace() turns the per-lane totals into Chrome-trace
// tracks.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace prism::sim {

class LaneProfiler {
 public:
  /// Whole-capture aggregate for one lane.
  struct LaneTotals {
    std::uint64_t events = 0;   ///< events the lane executed
    std::uint64_t busy_ns = 0;  ///< wall ns its worker spent running it
    Time sim_ns = 0;            ///< simulated time advanced while profiled
    Time sim_begin = 0;         ///< the lane's clock when that began
  };

  /// Whole-capture aggregate for one worker thread, summed over runs.
  /// busy and barrier wait are disjoint parts of each run's wall time,
  /// so barrier_wait_ns + busy_ns + idle_ns() == wall_ns.
  struct WorkerTotals {
    /// Always 0: lanes run without synchronisation windows. Kept because
    /// perfbench's per-layer report reads it.
    std::uint64_t rounds = 0;
    std::uint64_t wall_ns = 0;  ///< run start -> join, per run
    std::uint64_t barrier_wait_ns = 0;  ///< last lane done -> join
    std::uint64_t busy_ns = 0;  ///< running lanes

    std::uint64_t idle_ns() const noexcept {
      const std::uint64_t used = barrier_wait_ns + busy_ns;
      return wall_ns > used ? wall_ns - used : 0;
    }
  };

  LaneProfiler() = default;

  LaneProfiler(const LaneProfiler&) = delete;
  LaneProfiler& operator=(const LaneProfiler&) = delete;

  // ------------------------------------------------- LaneSet-facing hooks

  /// Folds one finished run of `lane`, which took its clock from `begin`
  /// to `end`, into its totals (cold path, after the join).
  void add_lane_run(int lane, Time begin, Time end, std::uint64_t events,
                    std::uint64_t busy_ns);

  /// Folds one worker's share of a finished run into its totals (cold
  /// path, after the join).
  void add_worker_run(int worker, std::uint64_t wall_ns,
                      std::uint64_t busy_ns, std::uint64_t barrier_wait_ns);

  // ----------------------------------------------------------- snapshot
  int num_lanes() const noexcept { return static_cast<int>(lanes_.size()); }
  int num_workers() const noexcept {
    return static_cast<int>(workers_.size());
  }

  const LaneTotals& lane(int i) const {
    return lanes_[static_cast<std::size_t>(i)];
  }
  const WorkerTotals& worker(int i) const {
    return workers_[static_cast<std::size_t>(i)];
  }

  /// Busy-time imbalance across lanes: max lane busy / mean lane busy
  /// (1.0 = perfectly balanced; 0 when nothing ran).
  double busy_imbalance() const noexcept;

  /// Events-executed imbalance across lanes (same max/mean shape) — the
  /// thread-count-independent companion to busy_imbalance().
  double event_imbalance() const noexcept;

  /// Zeroes every total (the lane and worker slots are kept).
  void reset();

 private:
  std::vector<LaneTotals> lanes_;
  std::vector<WorkerTotals> workers_;
};

}  // namespace prism::sim
