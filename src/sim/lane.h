// Parallel conservative discrete-event engine: one Simulator lane per
// simulated host, synchronized with time windows at the wire boundary.
//
// The single-threaded Simulator stays the per-lane engine; LaneSet owns N
// of them and advances all lanes together through conservative windows.
// Link propagation delay is the natural lookahead: a frame transmitted by
// lane j at time t cannot arrive before t + serialization(>=1ns) +
// propagation. Each round first computes every lane's *release time* —
// the earliest instant it could possibly execute anything, pending or
// future — as the fixpoint of
//
//   release(j) = min(next pending event of j,
//                    min over neighbors k of (release(k) + 1ns
//                                             + propagation(j, k)))
//
// (the second term covers j being woken by a message it has not received
// yet, including multi-hop chains within the round). Lane i may then
// safely execute all events up to its own horizon
//
//   window_end(i) = min over neighbors j of (release(j)
//                                            + propagation(i, j))
//
// since nothing from j can arrive at or before that. Windows are per
// lane, not global: two pairs of hosts that never exchange traffic
// advance independently instead of locksteping to the globally earliest
// event. Cross-lane deliveries travel through per-(src,dst) SPSC inboxes
// and are drained at window edges in (arrival time, src lane, sequence)
// order, so the schedule a lane observes is identical regardless of how
// many OS threads execute the windows — run_until(d, 1) and
// run_until(d, N) produce byte-identical simulations.
//
// Degenerate cases fall out of the window rule rather than being special:
// zero propagation delay makes window_end(i) == the neighborhood's
// minimum event time, i.e. lockstep single-instant windows (correct
// because serialization still adds >= 1 ns, so no arrival can land
// inside the instant that produced it); a lane with no registered links
// can neither send nor receive, so it has no horizon to respect and
// free-runs to the deadline.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/spsc.h"
#include "sim/time.h"

namespace prism::sim {

class LaneProfiler;

/// A set of per-host event lanes advanced through conservative windows.
class LaneSet {
 public:
  explicit LaneSet(int lanes);

  LaneSet(const LaneSet&) = delete;
  LaneSet& operator=(const LaneSet&) = delete;

  int num_lanes() const noexcept { return static_cast<int>(lanes_.size()); }
  Simulator& lane(int i) { return *lanes_[static_cast<std::size_t>(i)]; }

  /// Declares a cross-lane link with the given propagation delay (the
  /// Wire calls this at construction) and creates the inbox for each of
  /// its two directions. Each endpoint's window horizon then tracks the
  /// other's event clock plus this delay; registering the same lane pair
  /// again keeps the smaller delay. Self-links (a == b) are ignored: a
  /// lane needs no handoff to itself.
  void register_link(int a, int b, Duration propagation);

  /// Global lookahead floor (min registered propagation; kMaxTime when
  /// no cross-lane link exists). The post() safety check uses it; each
  /// lane's actual window uses its per-neighbor delays.
  Duration lookahead() const noexcept { return lookahead_; }

  /// Posts a cross-lane event: `fn` runs at absolute time `at` on lane
  /// `dst`. Must be called from lane `src`'s executing thread during a
  /// window, with `at` strictly after src's current time plus the
  /// (src,dst) link's propagation delay — the Wire's serialization
  /// (>= 1ns) + propagation guarantees this, and the window horizons
  /// assume it.
  void post(int src, int dst, Time at, EventFn fn);

  /// Advances every lane to `deadline` using `threads` OS threads
  /// (clamped to [1, num_lanes()]). Events at exactly `deadline` run;
  /// later events stay queued; every lane's clock ends at >= deadline
  /// (matching Simulator::run_until semantics). The caller's thread
  /// participates as worker 0. Deterministic for any thread count.
  void run_until(Time deadline, int threads = 1);

  /// Total events executed across all lanes.
  std::uint64_t events_executed() const;

  /// Total events still queued across all lanes. Between run_until()
  /// calls every inbox is drained, so this is the whole simulation's
  /// backlog.
  std::size_t pending_events() const;

  /// Number of synchronization windows the last run_until executed.
  std::uint64_t windows_run() const noexcept { return windows_; }

  /// Total cross-lane messages handed off so far (the inboxes' push
  /// counts, summed).
  std::uint64_t messages_posted() const;

  /// Cross-lane messages that overflowed an inbox ring onto the mutex
  /// spill path (diagnostic: should stay ~0 for well-sized rings).
  std::uint64_t inbox_spills() const;

  /// Per-destination-lane inbox diagnostics (summed/maxed over that
  /// lane's per-link queues; 0 for a lane with no links). All three are
  /// schedule-deterministic: identical at any thread count for the same
  /// simulation.
  std::uint64_t lane_inbox_spills(int dst) const;
  std::uint64_t lane_inbox_pushed(int dst) const;
  std::size_t lane_inbox_high_water(int dst) const;

  /// Attaches a wall-clock profiler (sim/lane_profiler.h): every window
  /// round then records per-lane busy/window/inbox stats and per-worker
  /// barrier/idle accounting. nullptr detaches; a detached engine pays
  /// one branch per round. Compiled out (the attach is ignored) under
  /// -DPRISM_TELEMETRY=OFF. Must not be changed while run_until() is
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

  /// Per-destination mailbox: one SPSC queue per linked source lane
  /// (null for lanes with no link to this one, so an N-lane set holds
  /// one queue per link direction rather than N*N) plus the
  /// consumer-side scratch used to sort a window's arrivals.
  struct Mailbox {
    std::vector<std::unique_ptr<SpscQueue<Message>>> from;  // [src lane]
    std::vector<Message> scratch;  ///< consumer-private drain buffer
  };

  /// Drains every inbox of lane `dst` into its event queue in
  /// (arrival, src, seq) order. Consumer-side only. Returns the number
  /// of messages drained (the profiler's inbox-depth sample).
  std::size_t drain_inboxes(int dst);

  /// Computes every linked lane's release time and window horizon (or
  /// sets done_) from next_time_. Runs as the barrier completion step:
  /// exactly one thread, all others parked.
  void compute_window(Time deadline);

  /// Snapshots per-lane engine counters so finish_profiled_run() can
  /// hand the profiler exact per-run deltas without any hot-path work.
  void begin_profiled_run();
  /// Folds the run's per-lane counter deltas (events, sim time, inbox
  /// traffic/spills) and message total into the attached profiler.
  void finish_profiled_run();

  /// One worker's share of lanes: worker w owns lanes {i : i % threads ==
  /// w}. `barrier` is the run's phase barrier (std::barrier, type-erased
  /// behind a caller-side wrapper so <barrier> stays out of this header).
  template <typename Barrier>
  void worker_loop(int worker, int threads, Time deadline, Barrier& barrier);

  struct Neighbor {
    int lane = 0;
    Duration propagation = 0;
  };

  std::vector<std::unique_ptr<Simulator>> lanes_;
  std::vector<Mailbox> mailboxes_;                  // [dst lane]
  std::vector<std::uint64_t> post_seq_;             // [src lane], producer-private
  std::vector<std::uint8_t> linked_;                // [lane] has any link?
  std::vector<std::vector<Neighbor>> neighbors_;    // [lane]
  /// True while every linked lane has exactly one peer (pair
  /// topologies); enables the closed-form window computation.
  bool pairwise_ = true;
  Duration lookahead_ = kMaxTime;
  LaneProfiler* profiler_ = nullptr;
  /// [lane] messages drained at the current round's window edge. Each
  /// entry is written and read only by the lane's owning worker; it
  /// carries the drain-phase count into the execute phase for the
  /// profiler's per-round record (written on sampled rounds only).
  std::vector<std::uint32_t> drained_msgs_;
  /// Per-lane counter baselines captured by begin_profiled_run() (cold;
  /// sized lazily on the first profiled run).
  std::vector<std::uint64_t> run_events0_;
  std::vector<Time> run_sim0_;
  std::vector<std::uint64_t> run_msgs0_;
  std::vector<std::uint64_t> run_spills0_;
  std::uint64_t run_messages0_ = 0;

  // ---- per-run_until window coordination (written by the completion
  // step while all workers are parked at the barrier, read by workers
  // after they are released — the barrier orders the accesses) ----
  std::vector<Time> next_time_;  ///< [lane] earliest pending event or kMaxTime
  std::vector<Time> release_;    ///< [lane] earliest possible execution
  std::vector<Time> window_end_;  ///< [lane] this round's horizon
  bool done_ = false;
  /// The one barrier alternates phases; the completion step computes the
  /// window only after the drain phase.
  bool completion_is_window_ = true;
  std::uint64_t windows_ = 0;
};

}  // namespace prism::sim
