#include "sim/pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "kernel/skb.h"
#include "kernel/skb_pool.h"
#include "net/packet.h"

namespace prism {
namespace {

TEST(ObjectPoolTest, RecyclesReleasedObjects) {
  sim::ObjectPool<int> pool;
  int* first = pool.acquire();
  pool.release(first);
  int* second = pool.acquire();
  EXPECT_EQ(first, second);  // LIFO free list hands the same object back

  const sim::PoolStats& s = pool.stats();
  EXPECT_EQ(s.acquired, 2u);
  EXPECT_EQ(s.allocated, 1u);
  EXPECT_EQ(s.reused, 1u);
  EXPECT_EQ(s.released, 1u);
  pool.release(second);
}

TEST(ObjectPoolTest, DisabledPoolPassesThrough) {
  sim::ObjectPool<int> pool;
  pool.set_enabled(false);
  int* a = pool.acquire();
  pool.release(a);
  int* b = pool.acquire();
  pool.release(b);

  const sim::PoolStats& s = pool.stats();
  EXPECT_EQ(s.acquired, 2u);
  EXPECT_EQ(s.allocated, 2u);  // every acquire hits the heap
  EXPECT_EQ(s.reused, 0u);
  EXPECT_EQ(s.released, 0u);
  EXPECT_EQ(s.discarded, 2u);  // every release frees
  EXPECT_EQ(pool.free_objects(), 0u);
}

TEST(ObjectPoolTest, WarmPoolHitRateApproachesOne) {
  sim::ObjectPool<int> pool;
  for (int i = 0; i < 1000; ++i) {
    int* obj = pool.acquire();
    pool.release(obj);
  }
  // One cold allocation, then every cycle reuses: 999/1000.
  EXPECT_EQ(pool.stats().allocated, 1u);
  EXPECT_GE(pool.stats().hit_rate(), 0.99);
}

TEST(BufferPoolTest, ReusesStorageAcrossAcquires) {
  sim::BufferPool& pool = sim::BufferPool::instance();
  pool.trim();  // drop blocks parked by earlier tests
  pool.reset_stats();

  sim::FrameBlock* block = pool.acquire(512);
  ASSERT_GE(block->capacity, 512u);
  block->end = 512;
  pool.release(block);

  // A block has its size class's full capacity, so a larger request of
  // the same class takes it too.
  sim::FrameBlock* again = pool.acquire(1500);
  EXPECT_EQ(again, block);  // same block, capacity kept
  EXPECT_EQ(again->capacity, sim::BufferPool::kFrameBytes);
  EXPECT_EQ(again->begin, 0u);  // handed out empty
  EXPECT_EQ(again->end, 0u);

  const sim::PoolStats& s = pool.stats();
  EXPECT_EQ(s.acquired, 2u);
  EXPECT_EQ(s.allocated, 1u);
  EXPECT_EQ(s.reused, 1u);
  EXPECT_EQ(s.released, 1u);
  pool.release(again);
}

TEST(BufferPoolTest, TooSmallBlockIsReplaced) {
  sim::BufferPool& pool = sim::BufferPool::instance();
  pool.trim();
  pool.reset_stats();

  // Blocks above the fixed classes share one list and keep their own
  // capacity.
  pool.release(pool.acquire(4096));
  sim::FrameBlock* big = pool.acquire(16384);
  EXPECT_GE(big->capacity, 16384u);
  EXPECT_EQ(pool.stats().allocated, 2u);  // the parked 4 KiB block was
  EXPECT_EQ(pool.stats().reused, 0u);     // too small for the request
  EXPECT_EQ(pool.free_buffers(), 0u);
  pool.release(big);
}

TEST(BufferPoolTest, InterleavedSizesAllocateNothingAfterTheFirstRound) {
  sim::BufferPool& pool = sim::BufferPool::instance();
  pool.trim();
  pool.reset_stats();

  // ACK-sized and MTU-sized frames come and go in an order that changes
  // every round. With one list for every size, a frame would pop a parked
  // ACK block, find it too small and replace it.
  std::vector<sim::FrameBlock*> held;
  held.reserve(8);
  const auto round = [&](int r) {
    for (int i = 0; i < 8; ++i) {
      held.push_back(pool.acquire((i + r) % 2 == 0 ? 1600 : 66));
    }
    while (!held.empty()) {
      const std::size_t k = static_cast<std::size_t>(3 * r + 1) % held.size();
      std::swap(held[k], held.back());
      pool.release(held.back());
      held.pop_back();
    }
  };
  round(0);
  EXPECT_EQ(pool.stats().allocated, 8u);
  for (int r = 1; r < 20; ++r) {
    EXPECT_EQ(test::allocations_during([&] { round(r); }), 0u) << r;
  }
  EXPECT_EQ(pool.stats().allocated, 8u);
  EXPECT_EQ(pool.stats().reused, 19u * 8u);
}

TEST(BufferPoolTest, DisabledPoolPassesThrough) {
  sim::BufferPool& pool = sim::BufferPool::instance();
  pool.trim();
  pool.reset_stats();
  pool.set_enabled(false);
  pool.release(pool.acquire(100));
  pool.release(pool.acquire(100));
  pool.set_enabled(true);

  const sim::PoolStats& s = pool.stats();
  EXPECT_EQ(s.acquired, 2u);
  EXPECT_EQ(s.allocated, 2u);
  EXPECT_EQ(s.discarded, 2u);
  EXPECT_EQ(s.released, 0u);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPoolTest, OversizedBlocksAreNotParked) {
  sim::BufferPool& pool = sim::BufferPool::instance();
  pool.trim();
  pool.reset_stats();
  pool.release(pool.acquire(sim::BufferPool::kMaxRetainedBytes + 1));
  EXPECT_EQ(pool.stats().discarded, 1u);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPoolTest, PacketBufStorageRoundTripsThroughPool) {
  sim::BufferPool& pool = sim::BufferPool::instance();
  pool.trim();
  pool.reset_stats();

  const std::uint8_t payload[32] = {};
  const std::uint8_t* first_bytes = nullptr;
  {
    net::PacketBuf p = net::PacketBuf::from_payload(payload);
    ASSERT_GT(p.size(), 0u);
    first_bytes = p.bytes().data();
    net::PacketBuf moved = std::move(p);  // the handle moves, not the block
  }  // the one destructor holding the block parks it
  EXPECT_EQ(pool.stats().released, 1u);

  {
    net::PacketBuf p = net::PacketBuf::from_payload(payload);
    ASSERT_GT(p.size(), 0u);
    EXPECT_EQ(p.bytes().data(), first_bytes);  // the same block
  }
  EXPECT_EQ(pool.stats().reused, 1u);  // second frame reuses the block
  EXPECT_EQ(pool.stats().acquired, 2u);
  EXPECT_EQ(pool.stats().released, 2u);
}

TEST(SkbPoolTest, RecyclesAndScrubsSkbs) {
  kernel::SkbPool& pool = kernel::SkbPool::instance();
  pool.trim();
  pool.reset_stats();

  kernel::Skb* raw = nullptr;
  {
    kernel::SkbPtr skb = kernel::alloc_skb();
    raw = skb.get();
    // Dirty every recycled field.
    const std::uint8_t payload[16] = {};
    skb->buf = net::PacketBuf::from_payload(payload);
    skb->gro_chain.push_back(net::PacketBuf::from_payload(payload));
    skb->segments = 3;
    skb->priority = 2;
    skb->stage = 2;
    skb->ts.nic_rx = 123;
    skb->parsed.emplace();
  }  // SkbRecycler releases back to the pool

  kernel::SkbPtr again = kernel::alloc_skb();
  EXPECT_EQ(again.get(), raw);  // recycled, not reallocated
  // ... and scrubbed back to a fresh skb.
  EXPECT_EQ(again->buf.size(), 0u);
  EXPECT_TRUE(again->gro_chain.empty());
  EXPECT_EQ(again->segments, 1);
  EXPECT_EQ(again->priority, 0);
  EXPECT_EQ(again->stage, 0);
  EXPECT_EQ(again->ts.nic_rx, -1);
  EXPECT_FALSE(again->parsed.has_value());

  const sim::PoolStats& s = pool.stats();
  EXPECT_EQ(s.acquired, 2u);
  EXPECT_EQ(s.allocated, 1u);
  EXPECT_EQ(s.reused, 1u);
  EXPECT_EQ(s.released, 1u);
}

TEST(SkbPoolTest, SteadyStateRecycleRateIsAtLeast99Percent) {
  kernel::SkbPool& pool = kernel::SkbPool::instance();
  pool.trim();
  pool.reset_stats();
  for (int i = 0; i < 1000; ++i) {
    kernel::SkbPtr skb = kernel::alloc_skb();
  }
  EXPECT_EQ(pool.stats().acquired, 1000u);
  EXPECT_GE(pool.stats().hit_rate(), 0.99);
}

}  // namespace
}  // namespace prism
