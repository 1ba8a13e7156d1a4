// The discrete-event simulator driving every experiment.
//
// All model components (NICs, CPUs, applications) share one Simulator. They
// schedule callbacks at absolute or relative simulated times; run() drains
// the event queue in timestamp order, advancing the clock. Nothing in the
// simulation ever blocks or uses wall-clock time.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace prism::sim {

/// Single-threaded discrete-event simulator.
class Simulator {
 public:
  Simulator() = default;

  // The simulator is the hub every component points at; moving it would
  // invalidate those references.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const noexcept { return now_; }

  /// Schedules `fn` to run after `delay` (>= 0) from now. The callable
  /// is built directly in its event-queue slot and runs there.
  template <typename F>
  void schedule(Duration delay, F&& fn) {
    assert(delay >= 0 && "cannot schedule into the past");
    queue_.push(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `at`. Times in the past are clamped to
  /// now (the event fires on the current instant, after already-queued
  /// events for that instant).
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    queue_.push(at < now_ ? now_ : at, std::forward<F>(fn));
  }

  /// Runs until the event queue is empty or stop() is called.
  void run();

  /// Runs until simulated time reaches `deadline` (events at exactly
  /// `deadline` are executed), the queue empties, or stop() is called.
  /// The clock is left at min(deadline, last event time) — callers can
  /// continue scheduling and run again.
  void run_until(Time deadline);

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  /// Number of events executed so far (for tests and diagnostics).
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of events waiting in the queue.
  std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Timestamp of the earliest pending event (the conservative-window
  /// scheduler's horizon input). Precondition: pending_events() > 0.
  Time next_event_time() const { return queue_.next_time(); }

 private:
  EventQueue queue_;
  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace prism::sim
