// Applies a fault::ChurnPlan to a Cluster between run_until calls.
//
// The control plane may only mutate hosts while no worker thread is
// running their lane, so the orchestrator turns a plan into a sequence of
// run_until calls: advance every lane to exactly the next event's
// timestamp, apply the event (stop / restart / migrate through the
// pair's OverlayNetwork), and continue. Because these stopping instants
// are a pure function of the plan, the observable schedule — and
// therefore every snapshot — is byte-identical for any thread count.
//
// The orchestrator tracks each churnable container's current incarnation
// (restart and migrate both replace the Netns object) and where it runs,
// and exposes hooks so the benchmark can re-arm application state: a
// restarted server needs its sockets re-bound and its app re-created on
// the new namespace, and the telemetry side wants note_disruption() to
// arm convergence watches.
#pragma once

#include <functional>
#include <vector>

#include "fault/churn.h"
#include "harness/cluster.h"

namespace prism::harness {

/// Drives cluster lifecycle churn from a seeded plan.
class ChurnOrchestrator {
 public:
  ChurnOrchestrator(Cluster& cluster, fault::ChurnPlan plan)
      : cluster_(cluster),
        plan_(std::move(plan)),
        slots_(static_cast<std::size_t>(cluster.pairs())) {}

  /// Registers `ns` as churnable container index `idx` of `pair` (the
  /// indices the plan's events refer to). Must run on the pair's server
  /// or client host; migration always targets the pair's other host.
  void register_container(int pair, int idx, overlay::Netns& ns);

  /// The current incarnation of churnable container (pair, idx). Updated
  /// in place when a restart or migration replaces the namespace.
  overlay::Netns& container(int pair, int idx) {
    return *slots_.at(static_cast<std::size_t>(pair)).at(
        static_cast<std::size_t>(idx));
  }

  /// The host currently running (or last running) container (pair, idx).
  kernel::Host& host_of(int pair, int idx) {
    return cluster_.pair(pair).overlay().host_of(container(pair, idx));
  }

  /// Advances every lane to `deadline`, pausing at each plan event whose
  /// timestamp is <= deadline to apply it at a barrier. Events are
  /// consumed once; successive calls continue where the last left off.
  void run_until(sim::Time deadline, int threads = 1);

  /// Plan events applied so far.
  std::size_t applied() const noexcept { return next_; }

  const fault::ChurnPlan& plan() const noexcept { return plan_; }

  // Hooks fire immediately after the event is applied, at the barrier
  // instant (sim clocks == event.at). `ns` is the affected namespace:
  // the draining old incarnation for on_stopped, the fresh one for
  // on_restarted / on_migrated.
  std::function<void(int pair, int idx, overlay::Netns& ns, sim::Time at)>
      on_stopped;
  std::function<void(int pair, int idx, overlay::Netns& ns, sim::Time at)>
      on_restarted;
  std::function<void(int pair, int idx, overlay::Netns& ns, sim::Time at)>
      on_migrated;

 private:
  void apply(const fault::ChurnEvent& e);

  Cluster& cluster_;
  fault::ChurnPlan plan_;
  std::size_t next_ = 0;  ///< first unapplied plan event
  /// slots_[pair][idx] -> current incarnation.
  std::vector<std::vector<overlay::Netns*>> slots_;
};

}  // namespace prism::harness
