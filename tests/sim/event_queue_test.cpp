#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

namespace prism::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(50, [] {});
  q.push(5, [] {});
  EXPECT_EQ(q.next_time(), 5);
  q.run_next();
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueueTest, ClearDiscardsEverything) {
  EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  std::vector<Time> fired;
  q.push(10, [&] { fired.push_back(10); });
  q.push(5, [&] { fired.push_back(5); });
  q.run_next();  // fires 5
  q.push(7, [&] { fired.push_back(7); });
  q.push(3, [&] { fired.push_back(3); });  // "past" — still earliest now
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, (std::vector<Time>{5, 3, 7, 10}));
}

TEST(EventQueueTest, CallbackRunsInPlaceWhileSchedulingPastAChunk) {
  // The running callback pushes more events than one slot chunk holds,
  // so the queue adds chunks under it; then it reads its own captures.
  // Had its slot moved, this would read freed memory (ASan reports it).
  EventQueue q;
  std::vector<int> seen;
  int fired = 0;
  const std::uint64_t a = 0x1111222233334444ull;
  const std::uint64_t b = 0x5555666677778888ull;
  q.push(1, [&q, &seen, &fired, a, b] {
    for (std::size_t i = 0; i < 3 * EventQueue::kChunkSlots; ++i) {
      q.push(2, [&fired] { ++fired; });
    }
    EXPECT_EQ(a, 0x1111222233334444ull);
    EXPECT_EQ(b, 0x5555666677778888ull);
    seen.push_back(static_cast<int>(q.size()));
  });
  q.run_next();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], static_cast<int>(3 * EventQueue::kChunkSlots));
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, static_cast<int>(3 * EventQueue::kChunkSlots));
}

TEST(EventQueueTest, ThrowingCallbackFreesItsSlot) {
  EventQueue q;
  auto owned = std::make_shared<int>(7);  // destroyed with the callback
  q.push(1, [owned] { throw std::runtime_error("boom"); });
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(owned.use_count(), 2);
  EXPECT_THROW(q.run_next(), std::runtime_error);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(owned.use_count(), 1);  // the thrown callback was destroyed
  bool ran = false;
  q.push(3, [&ran] { ran = true; });
  while (!q.empty()) q.run_next();
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace prism::sim
