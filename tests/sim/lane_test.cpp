// LaneSet unit tests: lanes are independent Simulators run to a common
// deadline. The simulation does not depend on the thread count, each
// lane's events run on one thread, and an event's exception reaches the
// caller.
#include "sim/lane.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/time.h"

namespace prism::sim {
namespace {

// -------------------------------------------------------------- LaneSet

/// The pointers a LaneSet borrows: lane i is `sims[i]`, which the
/// caller keeps alive for as long as the set.
std::vector<Simulator*> pointers_to(std::vector<Simulator>& sims) {
  std::vector<Simulator*> out;
  for (Simulator& s : sims) out.push_back(&s);
  return out;
}

TEST(LaneSetTest, ConstructionValidation) {
  EXPECT_THROW(LaneSet(std::vector<Simulator*>{}), std::invalid_argument);
  Simulator one;
  EXPECT_THROW(LaneSet(std::vector<Simulator*>{&one, nullptr}),
               std::invalid_argument);
  std::vector<Simulator> sims(3);
  LaneSet set(pointers_to(sims));
  EXPECT_EQ(set.num_lanes(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(&set.lane(i), &sims[static_cast<size_t>(i)]);  // borrowed
  }
  EXPECT_EQ(set.events_executed(), 0u);
  EXPECT_EQ(set.pending_events(), 0u);
}

TEST(LaneSetTest, SingleLaneRunsLikeASimulator) {
  std::vector<Simulator> sims(1);
  LaneSet set(pointers_to(sims));
  std::vector<Time> log;
  set.lane(0).schedule_at(10, [&] { log.push_back(set.lane(0).now()); });
  set.lane(0).schedule_at(30, [&] { log.push_back(set.lane(0).now()); });
  set.run_until(100);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 10);
  EXPECT_EQ(log[1], 30);
  EXPECT_EQ(set.lane(0).now(), 100);
  EXPECT_EQ(set.events_executed(), 2u);
}

TEST(LaneSetTest, DeadlineSemanticsMatchSimulatorRunUntil) {
  std::vector<Simulator> sims(2);
  LaneSet set(pointers_to(sims));
  int at_deadline = 0;
  int beyond = 0;
  set.lane(0).schedule_at(1'000, [&] { ++at_deadline; });
  set.lane(1).schedule_at(1'001, [&] { ++beyond; });
  set.run_until(1'000);
  EXPECT_EQ(at_deadline, 1);  // events at exactly the deadline run
  EXPECT_EQ(beyond, 0);       // later events stay queued
  EXPECT_EQ(set.pending_events(), 1u);
  EXPECT_EQ(set.lane(0).now(), 1'000);
  EXPECT_EQ(set.lane(1).now(), 1'000);
  set.run_until(2'000);  // a second run picks the queued event up
  EXPECT_EQ(beyond, 1);
}

// One host of a pair queues an event for the other on their shared
// lane: it runs at exactly the instant it was queued for, and the engine
// counts no window, message or spill.
TEST(LaneSetTest, CrossLanePostDeliversAtExactTime) {
  std::vector<Simulator> sims(2);
  LaneSet set(pointers_to(sims));
  Time delivered_at = -1;
  set.lane(1).schedule_at(100, [&] {
    set.lane(1).schedule_at(601, [&] { delivered_at = set.lane(1).now(); });
  });
  set.run_until(10'000);
  EXPECT_EQ(delivered_at, 601);
  EXPECT_EQ(set.events_executed(), 2u);
  EXPECT_EQ(set.windows_run(), 0u);
  EXPECT_EQ(set.messages_posted(), 0u);
  EXPECT_EQ(set.inbox_spills(), 0u);
}

// Two hosts of one lane ping-pong over a zero-delay link: each hop lands
// 1 ns after the one before (a frame's serialization floor). A chain 100
// hops deep completes, and the clock still ends at the deadline.
TEST(LaneSetTest, ZeroPropagationLockstepPingPong) {
  std::vector<Simulator> sims(1);
  LaneSet set(pointers_to(sims));
  Simulator& sim = set.lane(0);
  int hops = 0;
  // InlineFn cannot capture a recursive lambda by value; use a small
  // struct so each hop queues the next one.
  struct Hopper {
    Simulator* sim;
    int* hops;
    void hop() {
      ++*hops;
      if (*hops >= 100) return;
      Hopper next = *this;
      sim->schedule(1, [next]() mutable { next.hop(); });
    }
  };
  sim.schedule_at(5, [&sim, &hops] {
    Hopper start{&sim, &hops};
    start.hop();
  });
  set.run_until(1'000);
  EXPECT_EQ(hops, 100);
  EXPECT_EQ(set.events_executed(), 100u);
  EXPECT_EQ(sim.now(), 1'000);
}

// A lane with no work beside busy lanes still ends at the deadline, and
// a busy lane runs every event at its own time.
TEST(LaneSetTest, PeerlessLaneFreeRuns) {
  std::vector<Simulator> sims(3);
  LaneSet set(pointers_to(sims));
  std::vector<Time> log;
  for (int i = 1; i <= 10; ++i) {
    set.lane(2).schedule_at(i * 100, [&log, &set] {
      log.push_back(set.lane(2).now());
    });
  }
  int other_events = 0;
  set.lane(0).schedule_at(250, [&] { ++other_events; });
  set.run_until(5'000, 3);
  ASSERT_EQ(log.size(), 10u);
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(log[static_cast<size_t>(i - 1)], i * 100);
  }
  EXPECT_EQ(other_events, 1);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(set.lane(i).now(), 5'000);
}

TEST(LaneSetTest, NoLinksAtAllStillRuns) {
  std::vector<Simulator> sims(4);
  LaneSet set(pointers_to(sims));
  int ran = 0;
  for (int i = 0; i < 4; ++i) {
    set.lane(i).schedule_at(10 * (i + 1), [&] { ++ran; });
  }
  set.run_until(1'000);
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(set.windows_run(), 0u);  // nothing to synchronize
}

// ---------------------------------------------- cross-thread determinism

/// A deterministic workload over independent lanes with unequal loads:
/// lane i ticks every 300 ns, and each tick queues i + 1 deliveries 500
/// to 502 ns later, so several land on one nanosecond and their order is
/// the queue's tie order. Each lane's log is written only by that lane's
/// events, so two runs are byte-comparable.
struct LaneWorkload {
  explicit LaneWorkload(int lanes)
      : sims(lanes), set(pointers_to(sims)), logs(lanes) {}

  void tick(int lane, Time at, Time stop) {
    set.lane(lane).schedule_at(at, [this, lane, at, stop] {
      Simulator& s = set.lane(lane);
      std::vector<std::int64_t>& log = logs[static_cast<size_t>(lane)];
      log.push_back(s.now());
      for (int k = 0; k <= lane; ++k) {
        s.schedule(500 + k % 3, [&log, &s, k] {
          log.push_back(1'000'000'000 * std::int64_t{k + 1} + s.now());
        });
      }
      if (at + 300 <= stop) tick(lane, at + 300, stop);
    });
  }

  void run(int threads) {
    for (int i = 0; i < set.num_lanes(); ++i) tick(i, 100 + i * 7, 30'000);
    set.run_until(40'000, threads);
  }

  std::vector<Simulator> sims;
  LaneSet set;
  std::vector<std::vector<std::int64_t>> logs;
};

void expect_same_run(const LaneWorkload& a, const LaneWorkload& b,
                     const std::string& what) {
  EXPECT_EQ(a.set.events_executed(), b.set.events_executed()) << what;
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (size_t i = 0; i < a.logs.size(); ++i) {
    EXPECT_EQ(a.logs[i], b.logs[i]) << "lane " << i << " diverged: " << what;
  }
}

// Four and ten lanes of unequal load replay the one-thread schedule at
// 2, 4 and 16 threads, including more threads than lanes.
TEST(LaneSetTest, ThreadCountDoesNotChangeTheSimulation) {
  for (int lanes : {4, 10}) {
    LaneWorkload serial(lanes);
    serial.run(1);
    // Lane i runs i + 2 events per tick: the loads differ.
    ASSERT_LT(serial.logs.front().size(), serial.logs.back().size());
    for (const auto& log : serial.logs) ASSERT_FALSE(log.empty());
    for (int threads : {2, 4, 16}) {
      LaneWorkload parallel(lanes);
      parallel.run(threads);
      expect_same_run(serial, parallel,
                      std::to_string(lanes) + " lanes, 1 vs " +
                          std::to_string(threads) + " threads");
    }
  }
}

TEST(LaneSetTest, OversubscribedThreadCountClampsToLanes) {
  LaneWorkload a(2);
  a.run(1);
  LaneWorkload b(2);
  b.run(16);  // clamps to two workers
  EXPECT_EQ(a.set.events_executed(), b.set.events_executed());
  EXPECT_EQ(a.logs, b.logs);
}

// A lane never splits across threads: within one run_until every event
// of a lane runs on one thread, and several lanes at 2, 4 or 16 threads
// spread over more than one thread.
TEST(LaneSetTest, EachComponentRunsOnOneThread) {
  constexpr int kLanes = 7;
  for (int threads : {1, 2, 4, 16}) {
    std::vector<Simulator> sims(kLanes);
    LaneSet set(pointers_to(sims));
    std::vector<std::vector<std::thread::id>> ran_on(kLanes);
    // With several workers, every lane's first event waits (boundedly)
    // until a second lane has started, so the caller cannot finish every
    // lane before a helper thread claims one.
    std::atomic<int> started{0};
    for (int lane = 0; lane < kLanes; ++lane) {
      set.lane(lane).schedule_at(50, [&started, threads] {
        started.fetch_add(1);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (threads > 1 && started.load() < 2 &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
      });
      // Lane i is loaded (i + 1) times as densely as lane 0.
      for (Time t = 100; t <= 5'000; t += 100 / (lane + 1)) {
        set.lane(lane).schedule_at(t, [&ran_on, lane] {
          ran_on[static_cast<size_t>(lane)].push_back(
              std::this_thread::get_id());
        });
      }
    }
    set.run_until(10'000, threads);

    std::set<std::thread::id> all;
    for (int lane = 0; lane < kLanes; ++lane) {
      const auto& log = ran_on[static_cast<size_t>(lane)];
      ASSERT_FALSE(log.empty()) << "lane " << lane;
      const std::set<std::thread::id> ids(log.begin(), log.end());
      EXPECT_EQ(ids.size(), 1u)
          << "lane " << lane << " split across threads at " << threads;
      all.insert(ids.begin(), ids.end());
    }
    if (threads == 1) {
      EXPECT_EQ(all, std::set<std::thread::id>{std::this_thread::get_id()})
          << "one worker must run on the caller's thread";
    } else {
      EXPECT_GE(all.size(), 2u)
          << kLanes << " lanes ran on one thread at " << threads;
    }
  }
}

// An exception thrown by an event reaches the caller at any thread
// count: it stops its own lane, the other lanes still run, and the
// lowest-numbered lane's exception wins.
TEST(LaneSetTest, EventExceptionReachesCallerAtAnyThreadCount) {
  for (int threads : {1, 2, 4, 16}) {
    std::vector<Simulator> sims(5);
    LaneSet set(pointers_to(sims));
    // Lane 3 throws first in simulated time; lane 1 throws later; lane 4
    // does not throw.
    set.lane(3).schedule_at(100, [] { throw std::runtime_error("lane 3"); });
    bool after_throw_ran = false;
    set.lane(3).schedule_at(200, [&] { after_throw_ran = true; });
    set.lane(1).schedule_at(900, [] { throw std::runtime_error("lane 1"); });
    bool other_lane_ran = false;
    set.lane(4).schedule_at(950, [&] { other_lane_ran = true; });
    std::string caught;
    try {
      set.run_until(1'000, threads);
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "lane 1") << "threads=" << threads;
    EXPECT_FALSE(after_throw_ran) << "threads=" << threads;
    EXPECT_TRUE(other_lane_ran) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace prism::sim
