// LaneProfiler unit tests: per-run worker accounting conserves each
// worker's wall time, the exact per-lane totals match the engine's own
// counters, and an attached profiler never perturbs the schedule.
#include "sim/lane_profiler.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/lane.h"
#include "sim/time.h"

namespace prism::sim {
namespace {

/// The pointers a LaneSet borrows: lane i is `sims[i]`, which the
/// caller keeps alive for as long as the set.
std::vector<Simulator*> pointers_to(std::vector<Simulator>& sims) {
  std::vector<Simulator*> out;
  for (Simulator& s : sims) out.push_back(&s);
  return out;
}

/// Host-to-host ping-pong on one lane: the two hosts of a pair exchange
/// `remaining` hops, each landing `prop` + 1 ns after it was sent.
struct PingPong {
  Simulator& sim;
  Duration prop;
  int remaining;

  void start() {
    sim.schedule_at(1, [this] { hop(); });
  }
  void hop() {
    if (remaining-- <= 0) return;
    sim.schedule(prop + 1, [this] { hop(); });
  }
};

/// Events each lane executed.
using RunResult = std::vector<std::uint64_t>;

/// `lanes` independent ping-pongs, with a longer exchange per lane so
/// the lanes differ in load.
RunResult run_ping_pong(int threads, LaneProfiler* prof, int lanes = 1,
                        Time deadline = 200'000) {
  std::vector<Simulator> sims(lanes);
  LaneSet set(pointers_to(sims));
  std::vector<PingPong> pps;
  pps.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    pps.push_back(PingPong{set.lane(i), 100, 400 + 100 * i});
  }
  if (prof != nullptr) set.set_profiler(prof);
  for (PingPong& pp : pps) pp.start();
  set.run_until(deadline, threads);
  set.set_profiler(nullptr);
  RunResult events;
  for (int i = 0; i < lanes; ++i) {
    events.push_back(set.lane(i).events_executed());
  }
  return events;
}

TEST(LaneProfilerTest, AttachAndDetach) {
  std::vector<Simulator> sims(2);
  LaneSet set(pointers_to(sims));
  LaneProfiler prof;
  set.set_profiler(&prof);
  EXPECT_EQ(set.profiler(), &prof);
  set.set_profiler(nullptr);
  EXPECT_EQ(set.profiler(), nullptr);
}

TEST(LaneProfilerTest, ProfiledRunMatchesUnprofiledRun) {
  const RunResult plain = run_ping_pong(1, nullptr);
  LaneProfiler prof;
  const RunResult profiled = run_ping_pong(1, &prof);
  EXPECT_EQ(plain, profiled);
  // And across thread counts with the profiler attached.
  const RunResult plain3 = run_ping_pong(1, nullptr, 3);
  LaneProfiler prof2;
  const RunResult parallel = run_ping_pong(3, &prof2, 3);
  EXPECT_EQ(plain3, parallel);
}

TEST(LaneProfilerTest, WorkerRoundTimeConservation) {
  // Three lanes on one and on two workers.
  for (int threads : {1, 2}) {
    LaneProfiler prof;
    run_ping_pong(threads, &prof, 3);
    ASSERT_EQ(prof.num_workers(), threads);
    std::uint64_t worker_busy = 0;
    for (int w = 0; w < prof.num_workers(); ++w) {
      const auto& t = prof.worker(w);
      // Busy time and the join wait are disjoint parts of the run's wall
      // time, so they never exceed it and idle is exactly the remainder.
      EXPECT_GT(t.wall_ns, 0u) << "threads=" << threads;
      EXPECT_GT(t.busy_ns, 0u) << "threads=" << threads;
      EXPECT_LE(t.barrier_wait_ns + t.busy_ns, t.wall_ns);
      EXPECT_EQ(t.barrier_wait_ns + t.busy_ns + t.idle_ns(), t.wall_ns);
      EXPECT_EQ(t.rounds, 0u);  // no windows
      worker_busy += t.busy_ns;
    }
    // A worker is busy exactly while it runs its lanes.
    std::uint64_t lane_busy = 0;
    for (int i = 0; i < prof.num_lanes(); ++i) {
      EXPECT_GT(prof.lane(i).busy_ns, 0u) << "lane " << i;
      lane_busy += prof.lane(i).busy_ns;
    }
    EXPECT_EQ(worker_busy, lane_busy) << "threads=" << threads;
  }
}

TEST(LaneProfilerTest, ExactTotalsMatchEngineCounters) {
  std::vector<Simulator> sims(2);
  LaneSet set(pointers_to(sims));
  LaneProfiler prof;
  set.set_profiler(&prof);
  PingPong pp0{set.lane(0), 100, 300};
  PingPong pp1{set.lane(1), 100, 300};
  pp0.start();
  pp1.start();
  const Time deadline = 100'000;
  set.run_until(deadline, 1);

  // Events and simulated time come from the engine's own counters.
  ASSERT_EQ(prof.num_lanes(), 2);
  EXPECT_EQ(prof.lane(0).events, set.lane(0).events_executed());
  EXPECT_EQ(prof.lane(1).events, set.lane(1).events_executed());
  EXPECT_EQ(prof.lane(0).events + prof.lane(1).events,
            set.events_executed());
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(prof.lane(i).sim_begin, 0);
    EXPECT_EQ(prof.lane(i).sim_ns, deadline);
    EXPECT_GT(prof.lane(i).busy_ns, 0u);
  }
  // Two equal ping-pongs split the events evenly.
  EXPECT_DOUBLE_EQ(prof.event_imbalance(), 1.0);

  // A second run adds to the same capture.
  set.run_until(2 * deadline, 1);
  EXPECT_EQ(prof.lane(0).sim_begin, 0);
  EXPECT_EQ(prof.lane(0).sim_ns, 2 * deadline);
  EXPECT_EQ(prof.lane(0).events, set.lane(0).events_executed());
  set.set_profiler(nullptr);

  // Lopsided: lane 0 runs a dense local schedule; lane 1 runs one event.
  // The max/mean event ratio shows it.
  std::vector<Simulator> lopsided_sims(2);
  LaneSet lopsided(pointers_to(lopsided_sims));
  LaneProfiler prof2;
  lopsided.set_profiler(&prof2);
  for (Time t = 1; t < 50'000; t += 10) {
    lopsided.lane(0).schedule_at(t, [] {});
  }
  lopsided.lane(1).schedule_at(105, [] {});
  lopsided.run_until(50'000, 1);
  EXPECT_EQ(prof2.lane(1).events, 1u);
  EXPECT_GT(prof2.event_imbalance(), 1.5);
  lopsided.set_profiler(nullptr);
}

TEST(LaneProfilerTest, ResetClearsEverything) {
  std::vector<Simulator> sims(1);
  LaneSet set(pointers_to(sims));
  PingPong pp{set.lane(0), 100, 400};
  pp.start();
  LaneProfiler prof;
  set.set_profiler(&prof);
  set.run_until(10'000);
  ASSERT_GT(prof.lane(0).events, 0u);
  prof.reset();
  EXPECT_EQ(prof.worker(0).wall_ns, 0u);
  EXPECT_EQ(prof.lane(0).events, 0u);
  EXPECT_EQ(prof.lane(0).busy_ns, 0u);
  EXPECT_EQ(prof.lane(0).sim_ns, 0);
  EXPECT_EQ(prof.busy_imbalance(), 0.0);
  // A fresh capture after reset counts from zero again, and begins where
  // the lane's clock stood.
  const std::uint64_t before = set.events_executed();
  set.run_until(30'000);
  EXPECT_EQ(prof.lane(0).events, set.events_executed() - before);
  EXPECT_GT(prof.lane(0).events, 0u);
  EXPECT_EQ(prof.lane(0).sim_begin, 10'000);
  EXPECT_EQ(prof.lane(0).sim_ns, 20'000);
  set.set_profiler(nullptr);
}

}  // namespace
}  // namespace prism::sim
