// Wall-clock profiler for the lane engine.
//
// The conservative-window scheduler (sim/lane.h) answers "was the run
// correct"; this profiler answers "why did it run at this speed". It
// keeps two kinds of reading:
//
// - Per lane: the events it executed, the simulated time it advanced and
//   the cross-lane messages it received (exact), plus sampled window
//   records — the window's simulated span, its events, the wall-clock
//   time they took (busy) and the arrivals drained at its edge.
// - Per worker thread, once per run_until: its wall time from the start
//   of the run to the join, the time it spent inside components (busy),
//   its wait at the join (barrier_wait), and the windows it ran. A
//   worker's idle time is the remainder: a parked helper's wake-up, plus
//   thread start-up on the first run with a new thread count.
//
// Recording is zero-allocation on the hot path: every window record
// lands in a ring preallocated at construction (overwrites are counted,
// never silent), and the totals are plain adds into preallocated slots.
// The LaneSet only touches the profiler through a nullable pointer, so a
// detached engine (LaneSet::set_profiler(nullptr)) pays a single branch
// per window.
//
// Window records are *sampled*: windows are often shorter than a
// microsecond, so reading the clock on every one would cost more than
// the windows themselves. Only windows whose number within their
// component is a multiple of sample_every() pay the clock reads. That
// number depends only on the component's own schedule, so the sampled
// set is the same at any thread count. The per-lane integer totals stay
// exact anyway, because they come from counters the engine keeps
// regardless (simulator event counts, lane clocks, inbox counters),
// snapshotted once per run_until; per-lane busy_ns covers the sampled
// windows only (divide by sampled_rounds for a per-window average), and
// ratios like busy_imbalance() are unaffected.
//
// The profiler accumulates across run_until() calls; reset() starts a
// fresh capture. Snapshots are consumed by telemetry/rollup.{h,cpp}:
// lanes_json() renders the "prism/lanes" proc document and
// export_lane_trace() turns the retained windows into per-lane
// Chrome-trace tracks.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/time.h"

namespace prism::sim {

class LaneProfiler {
 public:
  /// One sampled (window, lane) execution record.
  struct LaneRound {
    std::uint64_t round = 0;   ///< window number within its component, 1-based
    std::uint32_t lane = 0;
    Time window_start = 0;     ///< lane clock when the window opened
    Time window_end = 0;       ///< the window's horizon for the lane
    std::uint64_t events = 0;  ///< events executed inside the window
    std::uint64_t busy_ns = 0;  ///< wall ns spent executing them
    std::uint32_t inbox_msgs = 0;  ///< cross-lane arrivals drained
  };

  /// Whole-capture aggregate for one lane. events / sim_ns / inbox
  /// counters are exact over the capture; busy_ns covers the sampled
  /// windows only.
  struct LaneTotals {
    std::uint64_t events = 0;   ///< events the lane executed
    /// Windows that carry wall-clock readings; busy_ns sums over exactly
    /// these.
    std::uint64_t sampled_rounds = 0;
    std::uint64_t busy_ns = 0;  ///< wall ns executing, sampled windows only
    Time sim_ns = 0;            ///< simulated time advanced while profiled
    std::uint64_t inbox_msgs = 0;        ///< cross-lane arrivals received
    std::uint32_t inbox_high_water = 0;  ///< max inbox backlog observed
  };

  /// Whole-capture aggregate for one worker thread, summed over runs.
  /// busy and barrier wait are disjoint parts of each run's wall time,
  /// so barrier_wait_ns + busy_ns + idle_ns() == wall_ns.
  struct WorkerTotals {
    std::uint64_t rounds = 0;  ///< windows the worker ran
    std::uint64_t wall_ns = 0;  ///< run start -> join, per run
    std::uint64_t barrier_wait_ns = 0;  ///< last component done -> join
    std::uint64_t busy_ns = 0;  ///< inside components

    std::uint64_t idle_ns() const noexcept {
      const std::uint64_t used = barrier_wait_ns + busy_ns;
      return wall_ns > used ? wall_ns - used : 0;
    }
  };

  static constexpr std::size_t kDefaultRoundCapacity = 1 << 14;
  /// Every how-many-th window pays the clock reads by default. 64 keeps
  /// the measured overhead well inside the 3% budget on sub-microsecond
  /// windows while still sampling thousands of windows per second.
  static constexpr std::uint64_t kDefaultSampleEvery = 64;

  /// `round_capacity` bounds the window-record ring; the oldest records
  /// are overwritten — and counted — once it fills. Totals are exact
  /// regardless of ring retention. `sample_every` sets the wall-clock
  /// sampling period (0 -> default; 1 = every window, for tests and
  /// fine-grained traces).
  explicit LaneProfiler(std::size_t round_capacity = kDefaultRoundCapacity,
                        std::uint64_t sample_every = kDefaultSampleEvery);

  LaneProfiler(const LaneProfiler&) = delete;
  LaneProfiler& operator=(const LaneProfiler&) = delete;

  // ------------------------------------------------- LaneSet-facing hooks

  /// Sizes per-lane/per-worker slots. Called by LaneSet::run_until()
  /// before any worker starts; idempotent across runs of the same
  /// geometry.
  void begin_run(int lanes, int workers);

  /// The engine samples wall clocks on windows whose number within
  /// their component (counted from 0) is a multiple of sample_every().
  std::uint64_t sample_every() const noexcept { return sample_every_; }

  /// One lane's sampled window: its span plus its wall-clock cost.
  /// Called concurrently by the workers; each lane has one writer.
  void record_lane_sample(std::uint64_t round, int lane,
                          Time window_start, Time window_end,
                          std::uint64_t events, std::uint64_t busy_ns,
                          std::uint32_t inbox_msgs);

  /// Folds one worker's share of a finished run into its totals (cold
  /// path, after the join).
  void add_worker_run(int worker, std::uint64_t wall_ns,
                      std::uint64_t busy_ns, std::uint64_t barrier_wait_ns,
                      std::uint64_t windows);

  /// Folds one finished run's engine counters for `lane` into the totals
  /// (cold path, once per lane per run_until). `events`, `sim_ns` and
  /// `inbox_msgs` are deltas over the run; `inbox_high_water` is
  /// max-merged.
  void add_lane_run_totals(int lane, std::uint64_t events, Time sim_ns,
                           std::uint64_t inbox_msgs,
                           std::uint32_t inbox_high_water);

  /// Run finished: windows run (summed over components) and cross-lane
  /// messages posted during the run.
  void end_run(std::uint64_t windows, std::uint64_t messages_posted);

  // ----------------------------------------------------------- snapshot
  /// Windows run across every profiled run_until(), summed over
  /// components.
  std::uint64_t rounds_recorded() const noexcept { return windows_; }
  std::uint64_t messages_posted() const noexcept { return messages_; }
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

  /// Retained window records, oldest first.
  std::size_t lane_round_count() const noexcept { return size_; }
  const LaneRound& lane_round(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }
  std::uint64_t lane_rounds_dropped() const noexcept { return dropped_; }

  /// Busy-time imbalance across lanes: max lane busy / mean lane busy
  /// (1.0 = perfectly balanced; 0 when nothing ran).
  double busy_imbalance() const noexcept;

  /// Events-executed imbalance across lanes (same max/mean shape) — the
  /// thread-count-independent companion to busy_imbalance().
  double event_imbalance() const noexcept;

  /// Drops every record and total (capacity is kept).
  void reset();

 private:
  std::vector<LaneTotals> lanes_;
  std::vector<WorkerTotals> workers_;
  /// Guards the record ring: sampled records arrive from every worker
  /// concurrently. Taken only on sampled windows (1 in sample_every()),
  /// so contention is negligible; the per-lane totals stay lock-free
  /// (a lane's component runs on one worker) and the per-worker totals
  /// are written after the join.
  std::mutex ring_mu_;
  std::vector<LaneRound> ring_;  ///< preallocated to capacity
  std::size_t size_ = 0;
  std::size_t head_ = 0;  ///< index of the oldest record
  std::uint64_t dropped_ = 0;
  std::uint64_t sample_every_ = kDefaultSampleEvery;
  std::uint64_t windows_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace prism::sim
