// LaneProfiler unit tests: per-run worker accounting conserves each
// worker's wall time, the exact totals match the engine's own counters,
// inbox accounting is identical across thread counts, and an attached
// profiler never perturbs the schedule.
#include "sim/lane_profiler.h"

#include <cstdint>
#include <tuple>

#include <gtest/gtest.h>

#include "sim/lane.h"
#include "sim/time.h"

namespace prism::sim {
namespace {

/// Cross-lane ping-pong: lanes `a` and `b` exchange `remaining` messages
/// over a link with `prop` propagation. Each hop is one event on the
/// receiving lane, so both lanes stay busy and every round carries a
/// cross-lane message.
struct PingPong {
  LaneSet& set;
  int a;
  int b;
  Duration prop;
  int remaining;

  void start() {
    set.lane(a).schedule_at(1, [this] { hop(a, b); });
  }
  void hop(int from, int to) {
    if (remaining-- <= 0) return;
    set.post(from, to, set.lane(from).now() + prop + 1,
             [this, from, to] { hop(to, from); });
  }
};

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
};

/// `pairs` independent ping-pongs (one component each; pair p on lanes
/// 2p and 2p + 1, with a longer exchange per pair so the components
/// differ in size).
RunResult run_ping_pong(int threads, LaneProfiler* prof, int pairs = 1,
                        Time deadline = 200'000) {
  LaneSet set(2 * pairs);
  std::vector<PingPong> pps;
  pps.reserve(static_cast<std::size_t>(pairs));
  for (int p = 0; p < pairs; ++p) {
    set.register_link(2 * p, 2 * p + 1, 100);
    pps.push_back(PingPong{set, 2 * p, 2 * p + 1, 100, 400 + 100 * p});
  }
  if (prof != nullptr) set.set_profiler(prof);
  for (PingPong& pp : pps) pp.start();
  set.run_until(deadline, threads);
  set.set_profiler(nullptr);
  return {set.events_executed(), set.messages_posted()};
}

TEST(LaneProfilerTest, AttachAndDetach) {
  LaneSet set(2);
  LaneProfiler prof(128, 1);
  set.set_profiler(&prof);
  EXPECT_EQ(set.profiler(), &prof);
  set.set_profiler(nullptr);
  EXPECT_EQ(set.profiler(), nullptr);
}

TEST(LaneProfilerTest, ProfiledRunMatchesUnprofiledRun) {
  const RunResult plain = run_ping_pong(1, nullptr);
  LaneProfiler prof(1 << 10, 1);
  const RunResult profiled = run_ping_pong(1, &prof);
  EXPECT_EQ(plain.events, profiled.events);
  EXPECT_EQ(plain.messages, profiled.messages);
  // And across thread counts with the profiler attached.
  const RunResult plain3 = run_ping_pong(1, nullptr, 3);
  LaneProfiler prof2(1 << 10, 1);
  const RunResult parallel = run_ping_pong(3, &prof2, 3);
  EXPECT_EQ(plain3.events, parallel.events);
  EXPECT_EQ(plain3.messages, parallel.messages);
}

TEST(LaneProfilerTest, WorkerRoundTimeConservation) {
  // Three components on one and on two workers.
  for (int threads : {1, 2}) {
    LaneProfiler prof(1 << 12, 1);
    run_ping_pong(threads, &prof, 3);
    ASSERT_EQ(prof.num_workers(), threads);
    std::uint64_t windows = 0;
    std::uint64_t busy = 0;
    for (int w = 0; w < prof.num_workers(); ++w) {
      const auto& t = prof.worker(w);
      // Busy time and the join wait are disjoint parts of the run's wall
      // time, so they never exceed it and idle is exactly the remainder.
      // (Which worker ran which component is timing-dependent, so a
      // worker may have run none.)
      EXPECT_GT(t.wall_ns, 0u) << "threads=" << threads;
      EXPECT_LE(t.barrier_wait_ns + t.busy_ns, t.wall_ns);
      EXPECT_EQ(t.barrier_wait_ns + t.busy_ns + t.idle_ns(), t.wall_ns);
      windows += t.rounds;
      busy += t.busy_ns;
    }
    // Every window ran on exactly one worker.
    EXPECT_EQ(windows, prof.rounds_recorded()) << "threads=" << threads;
    EXPECT_GT(busy, 0u) << "threads=" << threads;
  }
}

TEST(LaneProfilerTest, ExactTotalsMatchEngineCounters) {
  LaneSet set(2);
  set.register_link(0, 1, 100);
  LaneProfiler prof(256, 4);
  set.set_profiler(&prof);
  PingPong pp{set, 0, 1, 100, 300};
  pp.start();
  const Time deadline = 100'000;
  set.run_until(deadline, 1);

  // Event / message / window totals come from the engine's own counters,
  // so they are exact even though only 1 in 4 rounds was sampled.
  EXPECT_EQ(prof.lane(0).events + prof.lane(1).events,
            set.events_executed());
  EXPECT_EQ(prof.lane(0).inbox_msgs + prof.lane(1).inbox_msgs,
            set.messages_posted());
  EXPECT_EQ(prof.messages_posted(), set.messages_posted());
  EXPECT_EQ(prof.rounds_recorded(), set.windows_run());
  EXPECT_EQ(prof.lane(0).sim_ns, deadline);
  EXPECT_EQ(prof.lane(1).sim_ns, deadline);

  // Sampling: records exist, cover only every 4th window (the window
  // counter restarts at 0 per run and is stamped post-increment, so
  // retained window numbers are ≡ 1 mod 4), and busy time is attributed
  // to exactly the sampled windows.
  ASSERT_GT(prof.lane_round_count(), 0u);
  for (std::size_t i = 0; i < prof.lane_round_count(); ++i) {
    EXPECT_EQ(prof.lane_round(i).round % 4, 1u);
  }
  EXPECT_GT(prof.lane(0).sampled_rounds, 0u);
  EXPECT_LT(prof.lane(0).sampled_rounds, prof.rounds_recorded());
  // A ping-pong splits its events evenly between the two lanes.
  EXPECT_LT(prof.event_imbalance(), 1.1);
  set.set_profiler(nullptr);

  // Lopsided: lane 0 runs a dense local schedule; lane 1 only ever
  // receives one message. The max/mean event ratio shows it.
  LaneSet lopsided(2);
  lopsided.register_link(0, 1, 100);
  LaneProfiler prof2(256, 1);
  lopsided.set_profiler(&prof2);
  for (Time t = 1; t < 50'000; t += 10) {
    lopsided.lane(0).schedule_at(t, [] {});
  }
  lopsided.lane(0).schedule_at(5, [&lopsided] {
    lopsided.post(0, 1, lopsided.lane(0).now() + 101, [] {});
  });
  lopsided.run_until(50'000, 1);
  EXPECT_GT(prof2.event_imbalance(), 1.5);
  lopsided.set_profiler(nullptr);
}

TEST(LaneProfilerTest, InboxAccountingIdenticalAcrossThreadCounts) {
  // Two pairs, each bursting in a single window: lane 0 posts 3000
  // messages to lane 1, lane 2 posts 2000 to lane 3.
  auto run = [](int threads, LaneProfiler* prof) {
    LaneSet set(4);
    set.register_link(0, 1, 50);
    set.register_link(2, 3, 50);
    if (prof != nullptr) set.set_profiler(prof);
    for (int src : {0, 2}) {
      set.lane(src).schedule_at(10, [&set, src] {
        for (int i = 0; i < 3000 - 500 * src; ++i) {
          set.post(src, src + 1, set.lane(src).now() + 51 + i, [] {});
        }
      });
    }
    set.run_until(10'000, threads);
    set.set_profiler(nullptr);
    return std::make_tuple(set.lane_inbox_pushed(1),
                           set.lane_inbox_high_water(1),
                           set.lane_inbox_pushed(3),
                           set.lane_inbox_high_water(3));
  };
  const auto serial = run(1, nullptr);
  const auto parallel = run(2, nullptr);
  EXPECT_EQ(std::get<0>(serial), 3000u);
  EXPECT_EQ(std::get<1>(serial), 3000u);
  EXPECT_EQ(std::get<2>(serial), 2000u);
  EXPECT_EQ(std::get<3>(serial), 2000u);
  EXPECT_EQ(serial, parallel);

  // The profiler's per-lane totals see the same numbers at any thread
  // count, and attaching it does not change the engine's accounting.
  LaneProfiler p1(64, 8);
  LaneProfiler p2(64, 8);
  const auto prof_serial = run(1, &p1);
  const auto prof_parallel = run(2, &p2);
  EXPECT_EQ(prof_serial, serial);
  EXPECT_EQ(prof_parallel, serial);
  EXPECT_EQ(p1.lane(1).inbox_msgs, 3000u);
  EXPECT_EQ(p2.lane(1).inbox_msgs, 3000u);
  EXPECT_EQ(p1.lane(3).inbox_msgs, 2000u);
  EXPECT_EQ(p2.lane(3).inbox_msgs, 2000u);
  EXPECT_EQ(p1.lane(1).inbox_high_water, 3000u);
  EXPECT_EQ(p1.lane(1).inbox_high_water, p2.lane(1).inbox_high_water);
  EXPECT_EQ(p1.lane(3).inbox_high_water, p2.lane(3).inbox_high_water);
}

TEST(LaneProfilerTest, RingRetentionDropsOldestAndCounts) {
  LaneProfiler prof(8, 1);  // tiny ring, sample every round
  run_ping_pong(1, &prof);
  ASSERT_GT(prof.rounds_recorded(), 8u);
  EXPECT_EQ(prof.lane_round_count(), 8u);
  EXPECT_GT(prof.lane_rounds_dropped(), 0u);
  // Retained records are the most recent ones, oldest first.
  for (std::size_t i = 1; i < prof.lane_round_count(); ++i) {
    EXPECT_LE(prof.lane_round(i - 1).round, prof.lane_round(i).round);
  }
}

TEST(LaneProfilerTest, ResetClearsEverything) {
  LaneProfiler prof(64, 1);
  run_ping_pong(1, &prof);
  ASSERT_GT(prof.rounds_recorded(), 0u);
  prof.reset();
  EXPECT_EQ(prof.rounds_recorded(), 0u);
  EXPECT_EQ(prof.messages_posted(), 0u);
  EXPECT_EQ(prof.lane_round_count(), 0u);
  EXPECT_EQ(prof.worker(0).wall_ns, 0u);
  EXPECT_EQ(prof.lane(0).events, 0u);
  EXPECT_EQ(prof.lane(0).busy_ns, 0u);
  // A fresh capture after reset works and counts from zero again.
  run_ping_pong(1, &prof);
  EXPECT_GT(prof.rounds_recorded(), 0u);
}

}  // namespace
}  // namespace prism::sim
