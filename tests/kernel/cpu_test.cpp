#include "kernel/cpu.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "sim/simulator.h"

namespace prism::kernel {
namespace {

CostModel fast_wakeup_model() {
  CostModel c;
  c.cstate_entry_threshold = sim::microseconds(20);
  c.cstate_exit_latency = sim::microseconds(9);
  return c;
}

TEST(CpuTest, StartsIdle) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 3);
  EXPECT_TRUE(cpu.idle());
  EXPECT_EQ(cpu.id(), 3);
}

TEST(CpuTest, TaskRunsForItsCost) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  sim::Time done_at = -1;
  cpu.run_task(sim::microseconds(5), [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, sim::microseconds(5));
  EXPECT_EQ(cpu.accounting().busy_time(), sim::microseconds(5));
  EXPECT_TRUE(cpu.idle());
}

TEST(CpuTest, TasksRunSequentially) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  std::vector<sim::Time> done;
  cpu.run_task(100, [&] { done.push_back(sim.now()); });
  cpu.run_task(200, [&] { done.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(done, (std::vector<sim::Time>{100, 300}));
}

TEST(CpuTest, SoftirqPreemptsQueuedTasks) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  std::vector<int> order;
  // Occupy the CPU so both arrivals queue behind a running chunk.
  cpu.run_task(100, [] {});
  cpu.run_task(50, [&] { order.push_back(1); });  // task, queued first
  cpu.run_softirq([&] {
    order.push_back(2);  // softirq, queued second but must run first
    return sim::Duration{10};
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(CpuTest, SoftirqChainedFromSoftirqRunsBeforeTasks) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  std::vector<int> order;
  cpu.run_task(10, [&] { order.push_back(99); });
  cpu.run_softirq([&] {
    order.push_back(1);
    cpu.run_softirq([&] {
      order.push_back(2);
      return sim::Duration{10};
    });
    return sim::Duration{10};
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 99}));
}

TEST(CpuTest, BusyUntilTracksChunkEnd) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  cpu.run_softirq([&] {
    EXPECT_EQ(cpu.busy_until(), 0);  // set after the chunk body returns
    return sim::microseconds(7);
  });
  sim.run();
  EXPECT_EQ(cpu.busy_until(), sim::microseconds(7));
}

TEST(CpuTest, CStateExitPaidAfterLongIdle) {
  sim::Simulator sim;
  const CostModel cost = fast_wakeup_model();
  Cpu cpu(sim, cost, 0);
  sim::Time done_at = -1;
  // First work after construction: the core was never busy, so no exit
  // penalty bookkeeping exists yet — run something, go idle long, run
  // again.
  cpu.run_task(1000, [] {});
  sim.run();
  // Now idle starting at t=1000. Schedule work after a long idle gap.
  sim.schedule_at(1000 + sim::microseconds(100), [&] {
    cpu.run_task(500, [&] { done_at = sim.now(); });
  });
  sim.run();
  const sim::Time start = 1000 + sim::microseconds(100);
  EXPECT_EQ(done_at, start + cost.cstate_exit_latency + 500);
  EXPECT_EQ(cpu.cstate_exits(), 1u);
}

TEST(CpuTest, NoCStateExitAfterShortIdle) {
  sim::Simulator sim;
  const CostModel cost = fast_wakeup_model();
  Cpu cpu(sim, cost, 0);
  sim::Time done_at = -1;
  cpu.run_task(1000, [] {});
  sim.run();
  const sim::Time gap = cost.cstate_entry_threshold / 2;
  sim.schedule_at(1000 + gap, [&] {
    cpu.run_task(500, [&] { done_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(done_at, 1000 + gap + 500);
  EXPECT_EQ(cpu.cstate_exits(), 0u);
}

TEST(CpuTest, CStateStallNotCountedAsBusy) {
  sim::Simulator sim;
  const CostModel cost = fast_wakeup_model();
  Cpu cpu(sim, cost, 0);
  cpu.run_task(1000, [] {});
  sim.run();
  sim.schedule_at(sim::milliseconds(5), [&] { cpu.run_task(500, [] {}); });
  sim.run();
  EXPECT_EQ(cpu.accounting().busy_time(), 1500);
}

TEST(CpuTest, RunTaskFnUsesReturnedCost) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  cpu.run_task_fn([&] { return sim::Duration{321}; });
  sim.run();
  EXPECT_EQ(cpu.accounting().busy_time(), 321);
  EXPECT_EQ(cpu.busy_until(), 321);
}

// The completion contract (cpu.h, on_chunk_done): the completion runs at
// the chunk's end instant after an event other code queued for that
// instant before the chunk started, and before the next chunk's body; an
// event the completion queues for that instant runs after that body.
TEST(CpuTest, CompletionRunsAtTheEndInstantBeforeTheNextChunk) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  std::vector<std::string> order;
  sim.schedule_at(100, [&] { order.push_back("queued earlier"); });
  cpu.run_task(100, [&] {
    order.push_back("completion@" + std::to_string(sim.now()));
    sim.schedule(0, [&] { order.push_back("queued by completion"); });
  });
  cpu.run_task_fn([&] {
    order.push_back("next body@" + std::to_string(sim.now()));
    return sim::Duration{10};
  });
  sim.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"queued earlier", "completion@100",
                                      "next body@100",
                                      "queued by completion"}));
}

TEST(CpuTest, BackToBackTasksCostOneEventEach) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  constexpr std::uint64_t kTasks = 50;
  std::vector<sim::Time> done;
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    cpu.run_task(10, [&] { done.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(done.size(), kTasks);
  EXPECT_EQ(done.back(), static_cast<sim::Time>(10 * kTasks));
  // One dispatch to wake the core, then one end event per chunk that
  // runs its completion and starts the next.
  EXPECT_EQ(sim.events_executed(), kTasks + 1);
}

// Host::udp_send's shape: a chunk whose cost is known only when it runs
// sets its own completion.
TEST(CpuTest, RunTaskFnCompletionFiresAtTheReturnedCost) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  sim::Time fired = -1;
  sim.schedule_at(1000, [&] {
    cpu.run_task_fn([&] {
      cpu.on_chunk_done([&] { fired = sim.now(); });
      return sim::Duration{321};
    });
  });
  sim.run();
  EXPECT_EQ(fired, 1000 + 321);
  EXPECT_EQ(cpu.busy_until(), 1000 + 321);
}

// TcpEndpoint::send's shape: a pointer plus the payload vector, 32 bytes.
// The chunk and the completion slot hold it inline; std::function would
// box any capture over 16 bytes on the heap.
TEST(CpuTest, RunTaskWithAVectorCaptureAllocatesNothing) {
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  cpu.run_task(10, [] {});  // the ring and the event queue get storage
  sim.run();
  std::size_t sent = 0;
  std::vector<std::uint8_t> data(1000, 7);
  const std::uint64_t allocs = test::allocations_during([&] {
    cpu.run_task(10, [counter = &sent, data = std::move(data)] {
      *counter += data.size();
    });
    sim.run();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sent, 1000u);
}

TEST(CpuTest, HeavySoftirqStarvesTasks) {
  // Paper §VII-4: softirq has strictly higher priority; as long as packet
  // work exists, application chunks wait.
  sim::Simulator sim;
  CostModel cost;
  Cpu cpu(sim, cost, 0);
  sim::Time task_done = -1;
  int rounds = 0;
  std::function<sim::Duration()> storm = [&]() -> sim::Duration {
    if (++rounds < 10) cpu.run_softirq(storm);
    return sim::microseconds(10);
  };
  cpu.run_softirq(storm);
  cpu.run_task(1, [&] { task_done = sim.now(); });
  sim.run();
  EXPECT_EQ(task_done, sim::microseconds(100) + 1);
}

}  // namespace
}  // namespace prism::kernel
