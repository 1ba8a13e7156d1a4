#include "sim/ring.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "alloc_counter.h"

namespace prism::sim {
namespace {

std::vector<int> contents(const Ring<int>& r) {
  std::vector<int> out;
  for (std::size_t i = 0; i < r.size(); ++i) out.push_back(r[i]);
  return out;
}

// Counts live instances, so every destructor is seen exactly once.
struct Live {
  static int count;
  int value = 0;
  explicit Live(int v) : value(v) { ++count; }
  Live(const Live& other) : value(other.value) { ++count; }
  Live(Live&& other) noexcept : value(other.value) { ++count; }
  Live& operator=(const Live&) = default;
  Live& operator=(Live&&) noexcept = default;
  ~Live() { --count; }
};
int Live::count = 0;

TEST(RingTest, FifoOrderAcrossWrapAround) {
  Ring<int> r;
  int next_in = 0;
  int next_out = 0;
  // Keep 5 elements in an 8-slot ring while the head laps it many times.
  for (int i = 0; i < 5; ++i) r.push_back(next_in++);
  for (int round = 0; round < 100; ++round) {
    ASSERT_EQ(r.front(), next_out);
    r.pop_front();
    ++next_out;
    r.push_back(next_in++);
  }
  EXPECT_EQ(r.capacity(), Ring<int>::kInitialCapacity);
  EXPECT_EQ(contents(r), (std::vector<int>{100, 101, 102, 103, 104}));
}

TEST(RingTest, GrowthWithHeadMidBufferKeepsOrder) {
  Ring<int> r;
  for (int i = 0; i < 8; ++i) r.push_back(i);
  for (int i = 0; i < 5; ++i) r.pop_front();  // head at slot 5
  for (int i = 8; i < 13; ++i) r.push_back(i);  // wraps, then full
  ASSERT_EQ(r.size(), 8u);
  ASSERT_EQ(r.capacity(), 8u);
  r.push_back(13);  // grows with the live range split across the end
  EXPECT_EQ(r.capacity(), 16u);
  EXPECT_EQ(contents(r),
            (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12, 13}));
}

TEST(RingTest, PushFrontAndGrowthFromTheFront) {
  Ring<int> r;
  r.push_back(1);
  r.push_back(2);
  r.push_front(0);  // wraps to the last slot
  EXPECT_EQ(contents(r), (std::vector<int>{0, 1, 2}));
  for (int i = -1; i >= -5; --i) r.push_front(i);  // fills all 8 slots
  ASSERT_EQ(r.capacity(), 8u);
  r.push_front(-6);  // grows through the front
  EXPECT_EQ(r.capacity(), 16u);
  EXPECT_EQ(contents(r),
            (std::vector<int>{-6, -5, -4, -3, -2, -1, 0, 1, 2}));
  r.push_back(3);
  EXPECT_EQ(r.front(), -6);
  EXPECT_EQ(r[r.size() - 1], 3);
}

TEST(RingTest, PushAliasingAnElementSurvivesGrowth) {
  Ring<int> r;
  for (int i = 0; i < 8; ++i) r.push_back(i);
  r.push_back(r[3]);  // the source lives in the array being replaced
  r.push_front(r[7]);
  EXPECT_EQ(contents(r),
            (std::vector<int>{7, 0, 1, 2, 3, 4, 5, 6, 7, 3}));
}

TEST(RingTest, EraseKeepsOrder) {
  Ring<int> r;
  for (int i = 0; i < 6; ++i) r.push_back(i);
  r.pop_front();
  r.pop_front();
  for (int i = 6; i < 10; ++i) r.push_back(i);  // wraps
  r.erase(3);  // element 5
  EXPECT_EQ(contents(r), (std::vector<int>{2, 3, 4, 6, 7, 8, 9}));
  r.erase(0);
  EXPECT_EQ(contents(r), (std::vector<int>{3, 4, 6, 7, 8, 9}));
  r.erase(r.size() - 1);
  EXPECT_EQ(contents(r), (std::vector<int>{3, 4, 6, 7, 8}));
  // PRISM's move-to-head: find, erase, push_front.
  r.erase(2);
  r.push_front(6);
  EXPECT_EQ(contents(r), (std::vector<int>{6, 3, 4, 7, 8}));
}

TEST(RingTest, PopAndClearDestroyEachElementOnce) {
  Live::count = 0;
  {
    Ring<Live> r;
    for (int i = 0; i < 20; ++i) r.push_back(Live(i));  // grows twice
    EXPECT_EQ(Live::count, 20);
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(r.front().value, i);
      r.pop_front();
    }
    EXPECT_EQ(Live::count, 13);
    r.erase(4);
    EXPECT_EQ(Live::count, 12);
    r.clear();
    EXPECT_EQ(Live::count, 0);
    EXPECT_TRUE(r.empty());
    for (int i = 0; i < 3; ++i) r.push_front(Live(i));
    EXPECT_EQ(Live::count, 3);
  }
  EXPECT_EQ(Live::count, 0);  // the destructor clears what is left
}

TEST(RingTest, MoveOnlyElements) {
  Ring<std::unique_ptr<int>> r;
  for (int i = 0; i < 20; ++i) r.push_back(std::make_unique<int>(i));
  r.push_front(std::make_unique<int>(-1));
  EXPECT_EQ(*r.front(), -1);
  r.pop_front();
  for (int i = 0; i < 20; ++i) {
    std::unique_ptr<int> p = std::move(r.front());
    r.pop_front();
    EXPECT_EQ(*p, i);
  }
  EXPECT_TRUE(r.empty());
}

TEST(RingTest, GrownRingAllocatesNothing) {
  Ring<std::unique_ptr<int>> r;
  // The first push allocates the slot array, and nothing else does.
  EXPECT_EQ(test::allocations_during([&] { r.push_back(nullptr); }), 1u);
  for (int i = 0; i < 63; ++i) r.push_back(nullptr);  // capacity 64
  r.clear();
  const std::uint64_t allocs = test::allocations_during([&] {
    for (int i = 0; i < 10'000; ++i) {
      r.push_back(nullptr);
      if (i % 3 == 0) r.push_front(nullptr);
      if (r.size() > 48) {
        while (r.size() > 8) r.pop_front();
      }
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(r.capacity(), 64u);
}

}  // namespace
}  // namespace prism::sim
