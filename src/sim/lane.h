// Parallel conservative discrete-event engine: one Simulator lane per
// simulated host, synchronized with time windows at the wire boundary,
// with the connected component of registered links as the unit of
// parallel work.
//
// The single-threaded Simulator stays the per-lane engine; LaneSet owns N
// of them. Link propagation delay is the natural lookahead: a frame
// transmitted by lane j at time t cannot arrive before t +
// serialization(>=1ns) + propagation. Each window first computes every
// lane's *release time* — the earliest instant it could possibly execute
// anything, pending or future — as the fixpoint of
//
//   release(j) = min(next pending event of j,
//                    min over neighbors k of (release(k) + 1ns
//                                             + propagation(j, k)))
//
// (the second term covers j being woken by a message it has not received
// yet, including multi-hop chains within the window). Lane i may then
// safely execute all events up to its own horizon
//
//   window_end(i) = min over neighbors j of (release(j)
//                                            + propagation(i, j))
//
// since nothing from j can arrive at or before that.
//
// Both rules only read lanes that share a link path, so lanes in
// different connected components never constrain each other.
// run_until() hands whole components to worker threads, and each worker
// runs a component's drain -> window -> execute loop to the deadline on
// its own; workers meet once, at the join. A component's windows depend
// only on its own lanes' event times, so it replays the same schedule
// whichever thread runs it, next to whatever else. Cross-lane messages
// never leave their component, so each destination lane's inbox is a
// plain vector, drained at window edges in (arrival time, src lane,
// sequence) order. run_until(d, 1) and run_until(d, N) therefore execute
// byte-identical simulations.
//
// Degenerate cases fall out of the window rule rather than being special:
// zero propagation delay makes window_end(i) == the neighborhood's
// minimum event time, i.e. lockstep single-instant windows (correct
// because serialization still adds >= 1 ns, so no arrival can land
// inside the instant that produced it); a lane with no registered links
// is its own component, can neither send nor receive, and free-runs to
// the deadline.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace prism::sim {

class LaneProfiler;

/// A set of per-host event lanes advanced through conservative windows,
/// one connected component per worker thread.
class LaneSet {
 public:
  explicit LaneSet(int lanes);
  ~LaneSet();

  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  int num_lanes() const noexcept { return static_cast<int>(lanes_.size()); }
  Simulator& lane(int i) { return lanes_[static_cast<std::size_t>(i)].sim; }

  /// Declares a cross-lane link with the given propagation delay (the
  /// Wire calls this at construction), joining the two lanes' connected
  /// components. Each endpoint's window horizon then tracks the other's
  /// event clock plus this delay; registering the same lane pair again
  /// keeps the smaller delay. Self-links (a == b) are ignored: a lane
  /// needs no handoff to itself. Must not be called while run_until()
  /// is executing.
  void register_link(int a, int b, Duration propagation);

  /// Global lookahead floor (min registered propagation; kMaxTime when
  /// no cross-lane link exists). The post() safety check uses it; each
  /// lane's actual window uses its per-neighbor delays.
  Duration lookahead() const noexcept { return lookahead_; }

  /// Posts a cross-lane event: `fn` runs at absolute time `at` on lane
  /// `dst`. Must be called from an event executing on lane `src`, with
  /// `at` strictly after src's current time plus the (src,dst) link's
  /// propagation delay — the Wire's serialization (>= 1ns) +
  /// propagation guarantees this, and the window horizons assume it.
  void post(int src, int dst, Time at, EventFn fn);

  /// Advances every lane to `deadline`. Events at exactly `deadline`
  /// run; later events stay queued; every lane's clock ends at >=
  /// deadline (matching Simulator::run_until semantics). The connected
  /// components are shared among W = min(threads, components) workers:
  /// component i runs on worker i mod W. The caller's thread is worker
  /// 0; the W - 1 helper threads start with the first run that needs
  /// them and are kept, parked, until a run asks for another W or the
  /// set is destroyed. Deterministic for any thread count. A warm run
  /// allocates nothing: it starts no thread, and each component's
  /// packet buffers keep cycling through one worker's thread-local
  /// pools.
  ///
  /// An exception thrown by an event stops that event's component. The
  /// other components still run; once every worker has joined, the
  /// exception of the lowest-numbered component that threw (components
  /// are numbered by their lowest lane) is rethrown to the caller. The
  /// set's state is unspecified after a throw.
  void run_until(Time deadline, int threads = 1);

  /// Total events executed across all lanes.
  std::uint64_t events_executed() const;

  /// Total events still queued across all lanes. Between run_until()
  /// calls every inbox is drained, so this is the whole simulation's
  /// backlog.
  std::size_t pending_events() const;

  /// Number of synchronization windows the last run_until executed,
  /// summed over components.
  std::uint64_t windows_run() const noexcept { return windows_; }

  /// Total cross-lane messages handed off so far.
  std::uint64_t messages_posted() const;

  /// Always 0: an inbox is an unbounded vector filled and drained by
  /// the one thread that runs its component, so nothing overflows onto
  /// a slower path. Kept because perfbench's per-layer report reads it.
  std::uint64_t inbox_spills() const noexcept { return 0; }

  /// Per-destination-lane inbox diagnostics (0 for a lane with no
  /// links): messages received, and the deepest inbox backlog seen at
  /// post time. Both are schedule-deterministic: identical at any
  /// thread count for the same simulation.
  std::uint64_t lane_inbox_pushed(int dst) const {
    return lanes_[static_cast<std::size_t>(dst)].received;
  }
  std::size_t lane_inbox_high_water(int dst) const {
    return lanes_[static_cast<std::size_t>(dst)].high_water;
  }

  /// Attaches a wall-clock profiler (sim/lane_profiler.h): sampled
  /// windows then record per-lane busy/window/inbox stats, and each run
  /// records per-worker totals. nullptr detaches; a detached engine pays
  /// one branch per window. Must not be changed while run_until() is
  /// executing.
  void set_profiler(LaneProfiler* profiler) noexcept;
  LaneProfiler* profiler() const noexcept { return profiler_; }

  static constexpr Time kMaxTime = std::numeric_limits<Time>::max();

 private:
  struct Message {
    Time at = 0;
    std::uint32_t src = 0;
    std::uint64_t seq = 0;
    EventFn fn;
  };

  struct Neighbor {
    int lane = 0;
    Duration propagation = 0;
  };

  /// One lane's engine, links and inbox. Written only by the thread
  /// running the lane's component; cache-line aligned so lanes of two
  /// components never share a line.
  struct alignas(64) Lane {
    Simulator sim;
    std::vector<Neighbor> neighbors;
    std::vector<Message> inbox;  ///< posted since the last window edge
    std::uint64_t posted = 0;    ///< sequence number of its next post
    std::uint64_t received = 0;
    std::size_t high_water = 0;
  };

  struct Component;
  class Helpers;

  /// One worker's wall-clock totals over a profiled run.
  struct alignas(64) WorkerRun {
    std::uint64_t busy_ns = 0;
    std::uint64_t windows = 0;
    std::chrono::steady_clock::time_point done{};
  };

  /// Regroups lanes into connected components after register_link.
  void build_components();

  /// Runs component `c` to `deadline` on the calling thread.
  void run_component(Component& c, Time deadline);

  /// Moves lane `l`'s inbox into its event queue in (arrival, src, seq)
  /// order. Returns the number of messages moved.
  static std::size_t drain_inbox(Lane& l);

  /// Sizes the attached profiler for the run and snapshots the per-lane
  /// counters; finish_profiled_run() folds their deltas, the window
  /// count and the message total into the profiler.
  void begin_profiled_run(int workers);
  void finish_profiled_run();

  std::vector<Lane> lanes_;
  /// Numbered by their lowest lane; component i runs on worker i mod W.
  std::vector<std::unique_ptr<Component>> components_;
  /// Per worker (sized with the components: W <= components).
  std::vector<WorkerRun> runs_;
  bool components_stale_ = true;
  Duration lookahead_ = kMaxTime;
  LaneProfiler* profiler_ = nullptr;
  /// Per-lane counter baselines captured when a profiled run starts
  /// (cold; sized lazily on the first profiled run).
  std::vector<std::uint64_t> run_events0_;
  std::vector<Time> run_sim0_;
  std::vector<std::uint64_t> run_msgs0_;
  std::uint64_t run_messages0_ = 0;
  std::uint64_t windows_ = 0;
  /// Parked helper threads of the last multi-worker run. Declared last,
  /// so they are joined before anything they touch is destroyed.
  std::unique_ptr<Helpers> helpers_;
};

}  // namespace prism::sim
