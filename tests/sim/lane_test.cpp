// LaneSet unit tests: the conservative-window scheduler's edge cases
// (zero lookahead, events exactly on window boundaries, peerless lanes),
// its determinism across thread counts, and the one-thread-per-component
// contract.
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

TEST(LaneSetTest, ConstructionValidation) {
  EXPECT_THROW(LaneSet(0), std::invalid_argument);
  LaneSet set(3);
  EXPECT_EQ(set.num_lanes(), 3);
  EXPECT_THROW(set.register_link(0, 3, 100), std::out_of_range);
  EXPECT_THROW(set.register_link(-1, 1, 100), std::out_of_range);
  EXPECT_THROW(set.register_link(0, 1, -5), std::invalid_argument);
  // Self-links are ignored: no lookahead, no linkage.
  set.register_link(1, 1, 5);
  EXPECT_EQ(set.lookahead(), LaneSet::kMaxTime);
}

TEST(LaneSetTest, LookaheadIsMinimumOverLinks) {
  LaneSet set(3);
  set.register_link(0, 1, 700);
  EXPECT_EQ(set.lookahead(), 700);
  set.register_link(1, 2, 400);
  EXPECT_EQ(set.lookahead(), 400);
  set.register_link(0, 2, 900);
  EXPECT_EQ(set.lookahead(), 400);
}

TEST(LaneSetTest, SingleLaneRunsLikeASimulator) {
  LaneSet set(1);
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
  LaneSet set(2);
  set.register_link(0, 1, 500);
  int at_deadline = 0;
  int beyond = 0;
  set.lane(0).schedule_at(1'000, [&] { ++at_deadline; });
  set.lane(1).schedule_at(1'001, [&] { ++beyond; });
  set.run_until(1'000);
  EXPECT_EQ(at_deadline, 1);  // events at exactly the deadline run
  EXPECT_EQ(beyond, 0);       // later events stay queued
  EXPECT_EQ(set.lane(0).now(), 1'000);
  EXPECT_EQ(set.lane(1).now(), 1'000);
  set.run_until(2'000);  // a second run picks the queued event up
  EXPECT_EQ(beyond, 1);
}

TEST(LaneSetTest, CrossLanePostDeliversAtExactTime) {
  LaneSet set(2);
  set.register_link(0, 1, 500);
  Time delivered_at = -1;
  // Lane 0's event at t=100 posts a delivery at t=601 (> now + lookahead).
  set.lane(0).schedule_at(100, [&] {
    set.post(0, 1, 601, [&] { delivered_at = set.lane(1).now(); });
  });
  set.run_until(10'000);
  EXPECT_EQ(delivered_at, 601);
  EXPECT_EQ(set.messages_posted(), 1u);
  EXPECT_EQ(set.inbox_spills(), 0u);
}

// An arrival landing exactly on a window edge must execute in that
// window (run_until is inclusive), and one just past it in the next.
TEST(LaneSetTest, EventsExactlyOnWindowBoundary) {
  LaneSet set(2);
  set.register_link(0, 1, 500);
  // First window: t_min = 1000 (lane 0), window_end = 1500.
  std::vector<Time> log;
  set.lane(0).schedule_at(1'000, [&] { log.push_back(set.lane(0).now()); });
  set.lane(1).schedule_at(1'500, [&] {  // exactly on the edge
    log.push_back(set.lane(1).now());
  });
  set.lane(1).schedule_at(1'501, [&] {  // first instant past the edge
    log.push_back(set.lane(1).now());
  });
  set.run_until(10'000);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 1'000);
  EXPECT_EQ(log[1], 1'500);
  EXPECT_EQ(log[2], 1'501);
  EXPECT_GE(set.windows_run(), 2u);
}

// Zero propagation degenerates to single-instant lockstep windows; a
// cross-lane ping-pong 100 hops deep must complete without deadlock.
TEST(LaneSetTest, ZeroPropagationLockstepPingPong) {
  LaneSet set(2);
  set.register_link(0, 1, 0);
  EXPECT_EQ(set.lookahead(), 0);
  int hops = 0;
  // InlineFn cannot capture a recursive lambda by value; use a small
  // struct so each hop re-posts the next one.
  struct Hopper {
    LaneSet* set;
    int* hops;
    void hop(int from, int to) {
      ++*hops;
      if (*hops >= 100) return;
      // Serialization >= 1ns keeps arrivals strictly in the future even
      // with zero lookahead; model that with now() + 1.
      Time at = set->lane(from).now() + 1;
      Hopper next{set, hops};
      set->post(from, to, at, [next, to, from]() mutable {
        next.hop(to, from);
      });
    }
  };
  set.lane(0).schedule_at(5, [&set, &hops] {
    Hopper start{&set, &hops};
    start.hop(0, 1);
  });
  set.run_until(1'000);
  EXPECT_EQ(hops, 100);
  // Lockstep: every hop instant needs its own window.
  EXPECT_GE(set.windows_run(), 99u);
  EXPECT_EQ(set.lane(0).now(), 1'000);
  EXPECT_EQ(set.lane(1).now(), 1'000);
}

// A lane with no registered links cannot interact with anyone; it is
// excluded from the window protocol and free-runs to the deadline.
TEST(LaneSetTest, PeerlessLaneFreeRuns) {
  LaneSet set(3);
  set.register_link(0, 1, 500);
  std::vector<Time> log;
  for (int i = 1; i <= 10; ++i) {
    set.lane(2).schedule_at(i * 100, [&log, &set] {
      log.push_back(set.lane(2).now());
    });
  }
  // Give the linked pair some work too.
  int linked_events = 0;
  set.lane(0).schedule_at(250, [&] { ++linked_events; });
  set.run_until(5'000);
  ASSERT_EQ(log.size(), 10u);
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(log[static_cast<size_t>(i - 1)], i * 100);
  }
  EXPECT_EQ(linked_events, 1);
  EXPECT_EQ(set.lane(2).now(), 5'000);
}

TEST(LaneSetTest, NoLinksAtAllStillRuns) {
  LaneSet set(4);
  int ran = 0;
  for (int i = 0; i < 4; ++i) {
    set.lane(i).schedule_at(10 * (i + 1), [&] { ++ran; });
  }
  set.run_until(1'000);
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(set.windows_run(), 0u);  // nothing to synchronize
}

// ---------------------------------------------- cross-thread determinism

/// A link of a test topology.
struct Edge {
  int a;
  int b;
  Duration propagation;
};

/// The links of an n-lane ring (n >= 3) with the given delay, on lanes
/// [first, first + n).
std::vector<Edge> ring(int first, int n, Duration propagation) {
  std::vector<Edge> edges;
  for (int i = 0; i < n; ++i) {
    edges.push_back({first + i, first + (i + 1) % n, propagation});
  }
  return edges;
}

/// A deterministic workload over any topology: every lane ticks
/// periodically, logging its clock and posting a delivery to each of its
/// peers. Each lane's log is written only by that lane's events, so two
/// runs are byte-comparable.
struct GraphWorkload {
  struct Peer {
    int lane;
    Duration propagation;
  };

  GraphWorkload(int lanes, const std::vector<Edge>& edges)
      : set(lanes), logs(lanes), peers(lanes) {
    for (const Edge& e : edges) {
      set.register_link(e.a, e.b, e.propagation);
      peers[static_cast<size_t>(e.a)].push_back({e.b, e.propagation});
      peers[static_cast<size_t>(e.b)].push_back({e.a, e.propagation});
    }
  }

  void tick(int lane, Time at, Time stop) {
    set.lane(lane).schedule_at(at, [this, lane, at, stop] {
      logs[static_cast<size_t>(lane)].push_back(set.lane(lane).now());
      for (const Peer& p : peers[static_cast<size_t>(lane)]) {
        // Strictly beyond now + propagation; skew per lane so arrival
        // times collide across sources at a destination now and then.
        const Time arrival =
            set.lane(lane).now() + p.propagation + 1 + (lane % 3);
        const int dst = p.lane;
        set.post(lane, dst, arrival, [this, dst] {
          logs[static_cast<size_t>(dst)].push_back(
              1'000'000'000 + set.lane(dst).now());
        });
      }
      if (at + 300 <= stop) tick(lane, at + 300, stop);
    });
  }

  void run(int threads) {
    for (int i = 0; i < set.num_lanes(); ++i) tick(i, 100 + i * 7, 30'000);
    set.run_until(40'000, threads);
  }

  LaneSet set;
  std::vector<std::vector<std::int64_t>> logs;
  std::vector<std::vector<Peer>> peers;
};

void expect_same_run(const GraphWorkload& a, const GraphWorkload& b,
                     const std::string& what) {
  EXPECT_EQ(a.set.events_executed(), b.set.events_executed()) << what;
  EXPECT_EQ(a.set.messages_posted(), b.set.messages_posted()) << what;
  EXPECT_EQ(a.set.windows_run(), b.set.windows_run()) << what;
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (size_t i = 0; i < a.logs.size(); ++i) {
    EXPECT_EQ(a.logs[i], b.logs[i]) << "lane " << i << " diverged: " << what;
  }
}

// A 4-lane ring alone, and components of every shape side by side — a
// 4-lane ring, a triangle, a pair and a peerless lane — replay the
// serial schedule at any thread count, including more threads than
// components.
TEST(LaneSetTest, ThreadCountDoesNotChangeTheSimulation) {
  std::vector<Edge> mixed = ring(0, 4, 500);
  for (const Edge& e : ring(4, 3, 300)) mixed.push_back(e);
  mixed.push_back({7, 8, 700});
  // Lane 9 has no link.
  struct Case {
    int lanes;
    std::vector<Edge> edges;
    std::vector<int> threads;
  };
  const std::vector<Case> cases = {{4, ring(0, 4, 500), {4}},
                                   {10, mixed, {2, 4, 16}}};
  for (const Case& c : cases) {
    GraphWorkload serial(c.lanes, c.edges);
    serial.run(1);
    ASSERT_GT(serial.set.messages_posted(), 100u);
    ASSERT_GT(serial.set.windows_run(), 0u);
    for (const auto& log : serial.logs) ASSERT_FALSE(log.empty());
    for (int threads : c.threads) {
      GraphWorkload parallel(c.lanes, c.edges);
      parallel.run(threads);
      expect_same_run(serial, parallel,
                      std::to_string(c.lanes) + " lanes, 1 vs " +
                          std::to_string(threads) + " threads");
    }
  }
}

TEST(LaneSetTest, OversubscribedThreadCountClampsToLanes) {
  GraphWorkload a(2, {{0, 1, 500}});
  a.run(1);
  GraphWorkload b(2, {{0, 1, 500}});
  b.run(16);  // clamps to the one component
  EXPECT_EQ(a.set.events_executed(), b.set.events_executed());
  EXPECT_EQ(a.logs, b.logs);
}

// A component never splits across threads: within one run_until every
// event of a component runs on one thread, and several components at 4
// threads spread over more than one thread.
TEST(LaneSetTest, EachComponentRunsOnOneThread) {
  // Three pairs and a peerless lane: four components.
  const std::vector<Edge> edges = {{0, 1, 500}, {2, 3, 500}, {4, 5, 500}};
  const std::vector<std::vector<int>> components = {
      {0, 1}, {2, 3}, {4, 5}, {6}};
  for (int threads : {1, 4}) {
    LaneSet set(7);
    for (const Edge& e : edges) set.register_link(e.a, e.b, e.propagation);
    std::vector<std::vector<std::thread::id>> ran_on(7);
    // At 4 threads every component's first event waits (boundedly) until
    // a second component has started, so the caller cannot finish all
    // four before a helper thread claims one.
    std::atomic<int> started{0};
    for (const auto& members : components) {
      const int first = members.front();
      set.lane(first).schedule_at(50, [&started, threads] {
        started.fetch_add(1);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (threads > 1 && started.load() < 2 &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
      });
      for (int lane : members) {
        for (Time t = 100; t <= 5'000; t += 100) {
          set.lane(lane).schedule_at(t, [&ran_on, lane] {
            ran_on[static_cast<size_t>(lane)].push_back(
                std::this_thread::get_id());
          });
        }
        if (members.size() > 1) {
          const int peer = lane == members[0] ? members[1] : members[0];
          set.lane(lane).schedule_at(200, [&set, &ran_on, lane, peer] {
            set.post(lane, peer, set.lane(lane).now() + 501, [&, peer] {
              ran_on[static_cast<size_t>(peer)].push_back(
                  std::this_thread::get_id());
            });
          });
        }
      }
    }
    set.run_until(10'000, threads);

    std::set<std::thread::id> all;
    for (const auto& members : components) {
      std::set<std::thread::id> ids;
      for (int lane : members) {
        const auto& log = ran_on[static_cast<size_t>(lane)];
        ASSERT_FALSE(log.empty()) << "lane " << lane;
        ids.insert(log.begin(), log.end());
      }
      EXPECT_EQ(ids.size(), 1u) << "component of lane " << members.front()
                                << " split across threads at " << threads;
      all.insert(ids.begin(), ids.end());
    }
    if (threads == 1) {
      EXPECT_EQ(all, std::set<std::thread::id>{std::this_thread::get_id()})
          << "one worker must run on the caller's thread";
    } else {
      EXPECT_GE(all.size(), 2u) << "four components ran on one thread";
    }
  }
}

// An exception thrown by an event reaches the caller at any thread
// count: the lowest-numbered component's exception wins, and the other
// components still run.
TEST(LaneSetTest, EventExceptionReachesCallerAtAnyThreadCount) {
  for (int threads : {1, 4}) {
    LaneSet set(5);
    set.register_link(0, 1, 500);
    set.register_link(2, 3, 500);
    // Component 1 throws first in simulated time; component 0 throws
    // later; lane 4 is its own component and does not throw.
    set.lane(3).schedule_at(100, [] {
      throw std::runtime_error("component 1");
    });
    set.lane(1).schedule_at(900, [] {
      throw std::runtime_error("component 0");
    });
    bool peerless_ran = false;
    set.lane(4).schedule_at(950, [&peerless_ran] { peerless_ran = true; });
    std::string caught;
    try {
      set.run_until(1'000, threads);
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "component 0") << "threads=" << threads;
    EXPECT_TRUE(peerless_ran) << "threads=" << threads;
  }
}

// A burst far larger than any single window's usual traffic must arrive
// lossless and in posting order. (Named for the ring-overflow path the
// vector inboxes replaced.)
TEST(LaneSetTest, InboxSpillIsLossless) {
  LaneSet set(2);
  set.register_link(0, 1, 500);
  std::vector<int> received;
  set.lane(0).schedule_at(100, [&] {
    for (int i = 0; i < 3'000; ++i) {
      set.post(0, 1, 601 + i, [&received, i] { received.push_back(i); });
    }
  });
  set.run_until(10'000);
  EXPECT_EQ(set.lane_inbox_pushed(1), 3'000u);
  EXPECT_EQ(set.lane_inbox_high_water(1), 3'000u);
  ASSERT_EQ(received.size(), 3'000u);
  for (int i = 0; i < 3'000; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i)], i);
  }
}

}  // namespace
}  // namespace prism::sim
