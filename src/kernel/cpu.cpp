#include "kernel/cpu.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace prism::kernel {

Cpu::Cpu(sim::Simulator& sim, const CostModel& cost, int id)
    : sim_(sim), cost_(cost), id_(id) {}

void Cpu::wake() {
  if (!running_) {
    running_ = true;
    // Never start before busy_until_. A core goes idle only in its last
    // chunk's end event, at busy_until_, so this start is now.
    sim_.schedule_at(std::max(sim_.now(), busy_until_),
                     [this] { dispatch(); });
  }
}

void Cpu::dispatch() {
  if (softirq_q_.empty() && task_q_.empty()) {
    running_ = false;
    idle_pending_ = true;
    idle_since_ = sim_.now();
    return;
  }
  if (idle_pending_) {
    idle_pending_ = false;
    if (sim_.now() - idle_since_ >= cost_.cstate_entry_threshold) {
      // Pay the C1 exit before any work. The stall is wall-clock delay,
      // not chargeable work, so it is excluded from busy accounting.
      ++cstate_exits_;
      sim_.schedule(cost_.cstate_exit_latency, [this] { run_next(); });
      return;
    }
  }
  run_next();
}

void Cpu::run_next() {
  assert(!softirq_q_.empty() || !task_q_.empty());
  auto& q = softirq_q_.empty() ? task_q_ : softirq_q_;
  // Moved out before it runs: a poll chunk re-queues itself on its own
  // ring, which may grow the ring under a chunk running in its slot.
  Chunk chunk = std::move(q.front());
  q.pop_front();
  const sim::Duration cost = chunk();
  assert(cost >= 0 && "chunk cost must be non-negative");
  busy_until_ = sim_.now() + cost;
  acct_.add_busy(cost);
  sim_.schedule(cost, [this] { end_chunk(); });
}

void Cpu::end_chunk() {
  if (done_) {
    done_();
    done_.reset();
  }
  dispatch();
}

}  // namespace prism::kernel
