// Parallel discrete-event engine: N independent event lanes, run to a
// common deadline on a few worker threads.
//
// A lane is one Simulator that a whole connected part of the model
// shares: in every topology this project builds, a client/server pair
// joined by one wire (nic/wire.h). The set borrows its lanes: a Cluster
// hands it the Simulators of its Testbeds, which must outlive the set.
// Nothing crosses from one lane to another, so lanes need no
// synchronisation while they run; they meet once, when run_until()
// joins its workers. Inside a lane the events run in (time, queue
// order), exactly as on a lone Simulator.
//
// Lane i always runs on worker i mod W, the caller's thread being worker
// 0, so a lane's packet buffers keep cycling through one thread's pools.
// Each lane replays the same schedule whichever thread runs it, next to
// whatever else: run_until(d, 1) and run_until(d, N) execute
// byte-identical simulations.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace prism::sim {

class LaneProfiler;

/// A set of independent event lanes run in parallel, one lane at a time
/// per worker thread.
class LaneSet {
 public:
  /// Lane i is `*lanes[i]`. Throws std::invalid_argument on an empty
  /// list or a null entry.
  explicit LaneSet(std::vector<Simulator*> lanes);
  ~LaneSet();

  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  int num_lanes() const noexcept { return static_cast<int>(lanes_.size()); }
  Simulator& lane(int i) { return *lanes_[static_cast<std::size_t>(i)].sim; }

  /// Advances every lane to `deadline`. Events at exactly `deadline`
  /// run; later events stay queued; every lane's clock ends at >=
  /// deadline (matching Simulator::run_until semantics). The lanes are
  /// shared among W = min(threads, lanes) workers: lane i runs on worker
  /// i mod W. The caller's thread is worker 0; the W - 1 helper threads
  /// start with the first run that needs them and are kept, parked,
  /// until a run asks for another W or the set is destroyed.
  /// Deterministic for any thread count. A warm run allocates nothing:
  /// it starts no thread, and each lane's packet buffers keep cycling
  /// through one worker's thread-local pools.
  ///
  /// An exception thrown by an event stops that event's lane. The other
  /// lanes still run; once every worker has joined, the exception of
  /// the lowest-numbered lane that threw is rethrown to the caller. The
  /// set's state is unspecified after a throw.
  void run_until(Time deadline, int threads = 1);

  /// Total events executed across all lanes.
  std::uint64_t events_executed() const;

  /// Total events still queued across all lanes: the whole simulation's
  /// backlog.
  std::size_t pending_events() const;

  /// Always 0: lanes run to the deadline without synchronisation
  /// windows, and no event crosses from one lane to another, so nothing
  /// is posted or spilled. Kept because perfbench's per-layer report
  /// reads all three.
  std::uint64_t windows_run() const noexcept { return 0; }
  std::uint64_t messages_posted() const noexcept { return 0; }
  std::uint64_t inbox_spills() const noexcept { return 0; }

  /// Attaches a wall-clock profiler (sim/lane_profiler.h): each run then
  /// records per-lane and per-worker totals. nullptr detaches; a
  /// detached engine reads no clock. Must not be changed while
  /// run_until() is executing.
  void set_profiler(LaneProfiler* profiler) noexcept {
    profiler_ = profiler;
  }
  LaneProfiler* profiler() const noexcept { return profiler_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One lane's engine and its share of the current run. Written only
  /// by the worker running the lane; cache-line aligned so two lanes
  /// never share a line.
  struct alignas(64) Lane {
    Simulator* sim = nullptr;    ///< borrowed
    std::exception_ptr error;    ///< thrown by an event this run
    Time begin = 0;              ///< clock when this run began
    std::uint64_t events = 0;    ///< executed this run
    std::uint64_t busy_ns = 0;   ///< wall ns this run (profiled runs)
  };

  /// One worker's wall-clock totals over a profiled run.
  struct alignas(64) WorkerRun {
    std::uint64_t busy_ns = 0;
    Clock::time_point done{};
  };

  class Helpers;

  /// Runs lane `l` to `deadline` on the calling thread, keeping any
  /// exception in l.error; a profiled run also times it.
  static void run_lane(Lane& l, Time deadline, bool profiled);

  std::vector<Lane> lanes_;
  /// Per worker (sized with the lanes: W <= lanes).
  std::vector<WorkerRun> runs_;
  LaneProfiler* profiler_ = nullptr;
  /// Parked helper threads of the last multi-worker run. Declared last,
  /// so they are joined before anything they touch is destroyed.
  std::unique_ptr<Helpers> helpers_;
};

}  // namespace prism::sim
