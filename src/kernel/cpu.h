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
// A chunk costs one event. Its body runs at the start instant, built once
// in its ring slot; the one event at its end instant runs the chunk's
// completion, if the body set one (on_chunk_done), and then dispatches
// the next chunk. In Linux a task's return and the scheduler's next pick
// are one context switch, and udp_sendmsg reaches dev_queue_xmit in the
// sender's own context: there is no separate completion step to model.
//
// The Cpu also models the C1 sleep state the paper's testbed allowed
// (max C-state = 1): a core idle longer than an entry threshold pays an
// exit latency before its next chunk, reproducing the low-load latency
// bump of Fig. 11.
#pragma once

#include <cassert>
#include <utility>

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
  /// capture storage only (a larger closure does not compile), built in
  /// its slot of a ring that stops growing once warm — chunks queue and
  /// run without heap traffic.
  using Chunk = sim::InlineFn<sim::Duration()>;

  Cpu(sim::Simulator& sim, const CostModel& cost, int id);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Enqueues softirq-priority work (IRQ top halves, NAPI processing).
  /// The Chunk is constructed from `chunk` in its ring slot.
  template <typename F>
  void run_softirq(F&& chunk) {
    softirq_q_.emplace_back(std::forward<F>(chunk));
    wake();
  }

  /// Enqueues task-priority work with a cost known up front; `on_done`
  /// runs at the chunk's end instant as its completion (on_chunk_done).
  /// The chunk holds `on_done` until it starts, so `on_done` gets the
  /// Chunk's 120 bytes less `this` and `cost`: 104. A larger closure
  /// does not compile.
  template <typename F>
  void run_task(sim::Duration cost, F&& on_done) {
    run_task_fn([this, cost, cb = std::forward<F>(on_done)]() mutable {
      on_chunk_done(std::move(cb));
      return cost;
    });
  }

  /// Enqueues task-priority work whose cost is computed when it starts.
  /// The Chunk is constructed from `chunk` in its ring slot.
  template <typename F>
  void run_task_fn(F&& chunk) {
    task_q_.emplace_back(std::forward<F>(chunk));
    wake();
  }

  /// Sets the running chunk's completion: `fn` runs at the chunk's end
  /// instant, in the same event that then dispatches the next chunk.
  /// So it runs after every event queued for that instant before the
  /// chunk's body returned (the chunk's own included), and before the
  /// next chunk's body; an event it queues for that instant runs after
  /// that body. Only a running chunk may call this, at most once.
  template <typename F>
  void on_chunk_done(F&& fn) {
    assert(running_ && !done_ && "one completion per running chunk");
    done_.emplace(std::forward<F>(fn));
  }

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
  void wake();
  void dispatch();
  void run_next();
  void end_chunk();

  sim::Simulator& sim_;
  const CostModel& cost_;
  int id_;
  sim::Ring<Chunk> softirq_q_;
  sim::Ring<Chunk> task_q_;
  sim::InlineFn<void()> done_;  // the running chunk's completion
  bool running_ = false;
  bool idle_pending_ = false;  // core went idle; C-state check on next work
  sim::Time idle_since_ = 0;
  sim::Time busy_until_ = 0;
  stats::CpuAccounting acct_;
  std::uint64_t cstate_exits_ = 0;
};

}  // namespace prism::kernel
