// Simulated CPU core.
//
// A Cpu executes "chunks" of work sequentially, charging simulated time for
// each. Two priority levels model the kernel's execution regime: softirq
// work always runs before task (application/syscall) work on the same core
// — softirq context has strictly higher priority than any thread (paper
// §VII-4), which is why heavy packet processing can starve colocated
// applications in both Vanilla and PRISM.
//
// Chunks are non-preemptive: once started, a chunk runs to completion.
// Every chunk in this codebase is microseconds-scale (one NAPI batch, one
// syscall, one request service), so the approximation error versus a
// preemptible kernel is bounded by one batch — the same granularity the
// paper's own batch-level preemption argument uses.
//
// The Cpu also models the C1 sleep state the paper's testbed allowed
// (max C-state = 1): a core idle longer than an entry threshold pays an
// exit latency before its next chunk, reproducing the low-load latency
// bump of Fig. 11.
#pragma once

#include <functional>

#include "kernel/cost_model.h"
#include "sim/inline_fn.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "stats/cpu_accounting.h"

namespace prism::kernel {

/// One simulated core. All state is driven by the shared Simulator; the
/// object must outlive any scheduled work.
class Cpu {
 public:
  /// Work to execute. Runs at the chunk's start instant and returns the
  /// simulated duration the chunk occupies the core. The body may schedule
  /// events at intermediate instants (start + partial cost) to model
  /// effects that happen midway through the chunk. Move-only with inline
  /// capture storage only (a larger closure does not compile), queued in
  /// rings that stop growing once warm — chunks queue and run without
  /// heap traffic.
  using Chunk = sim::InlineFn<sim::Duration()>;

  Cpu(sim::Simulator& sim, const CostModel& cost, int id);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Enqueues softirq-priority work (IRQ top halves, NAPI processing).
  void run_softirq(Chunk chunk);

  /// Enqueues task-priority work with a cost known up front; `on_done`
  /// fires at the chunk's completion instant.
  void run_task(sim::Duration cost, std::function<void()> on_done);

  /// Enqueues task-priority work whose cost is computed when it starts.
  void run_task_fn(Chunk chunk);

  /// True when nothing is running or queued on this core.
  bool idle() const noexcept {
    return !running_ && softirq_q_.empty() && task_q_.empty();
  }

  /// Instant the current chunk finishes (<= now when idle).
  sim::Time busy_until() const noexcept { return busy_until_; }

  int id() const noexcept { return id_; }

  stats::CpuAccounting& accounting() noexcept { return acct_; }
  const stats::CpuAccounting& accounting() const noexcept { return acct_; }

  /// Number of C1 exits taken (for tests and diagnostics).
  std::uint64_t cstate_exits() const noexcept { return cstate_exits_; }

 private:
  void enqueue(bool softirq, Chunk chunk);
  void dispatch();
  void run_next();

  sim::Simulator& sim_;
  const CostModel& cost_;
  int id_;
  sim::Ring<Chunk> softirq_q_;
  sim::Ring<Chunk> task_q_;
  bool running_ = false;
  bool idle_pending_ = false;  // core went idle; C-state check on next work
  sim::Time idle_since_ = 0;
  sim::Time busy_until_ = 0;
  stats::CpuAccounting acct_;
  std::uint64_t cstate_exits_ = 0;
};

}  // namespace prism::kernel
