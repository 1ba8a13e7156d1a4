#include "sim/inline_fn.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/event_queue.h"

namespace prism::sim {
namespace {

using Fn = InlineFn<int()>;

// A callable padded to exactly N bytes (N >= sizeof(int)).
template <std::size_t N>
struct Sized {
  int value = 0;
  unsigned char pad[N - sizeof(int)] = {};
  int operator()() const { return value; }
};
static_assert(sizeof(Sized<64>) == 64);

// Counts live instances across moves, to pin down destructor behaviour.
struct Counted {
  static int live;
  bool owner = true;
  Counted() { ++live; }
  Counted(Counted&& other) noexcept { ++live; other.owner = false; }
  Counted(const Counted& other) : owner(other.owner) { ++live; }
  ~Counted() { --live; }
  int operator()() const { return owner ? 1 : 0; }
};
int Counted::live = 0;

// Nothrow-move requirement: a throwing-move callable is rejected even
// when it would fit the buffer.
struct ThrowingMove {
  int value = 5;
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&& other) : value(other.value) {}  // not noexcept
  int operator()() const { return value; }
};
static_assert(sizeof(ThrowingMove) <= Fn::kInlineCapacity);

// Alignment requirement: the buffer is aligned to max_align_t only.
struct alignas(2 * alignof(std::max_align_t)) OverAligned {
  int value = 0;
  int operator()() const { return value; }
};
static_assert(sizeof(OverAligned) <= Fn::kInlineCapacity);

TEST(InlineFnTest, SmallCallableIsInlineAndInvokes) {
  Fn fn = [] { return 42; };
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(), 42);
}

TEST(InlineFnTest, ExactCapacityIsInline) {
  Sized<Fn::kInlineCapacity> f;
  f.value = 7;
  static_assert(Fn::fits_inline<Sized<Fn::kInlineCapacity>>());
  static_assert(std::is_constructible_v<Fn, Sized<Fn::kInlineCapacity>>);
  Fn fn = f;
  EXPECT_EQ(fn(), 7);
}

// InlineFn has no heap fallback: a callable outside the storage contract
// has no constructor to call, so these are compile-time checks.
TEST(InlineFnTest, OneByteOverCapacityIsRejected) {
  static_assert(!Fn::fits_inline<Sized<Fn::kInlineCapacity + 1>>());
  static_assert(!std::is_constructible_v<Fn, Sized<Fn::kInlineCapacity + 1>>);
}

TEST(InlineFnTest, ThrowingMoveCallableIsRejected) {
  static_assert(!std::is_constructible_v<Fn, ThrowingMove>);
}

TEST(InlineFnTest, OverAlignedCallableIsRejected) {
  static_assert(!std::is_constructible_v<Fn, OverAligned>);
}

TEST(InlineFnTest, MoveTransfersOwnership) {
  Fn a = [] { return 1; };
  Fn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(b(), 1);

  Fn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c(), 1);
}

TEST(InlineFnTest, MoveAssignDestroysPreviousCallable) {
  Counted::live = 0;
  {
    Fn fn = Counted{};
    EXPECT_EQ(Counted::live, 1);
    fn = [] { return 3; };  // must destroy the Counted
    EXPECT_EQ(Counted::live, 0);
    EXPECT_EQ(fn(), 3);
  }
}

TEST(InlineFnTest, DestructorRunsExactlyOnceThroughMoves) {
  Counted::live = 0;
  {
    Fn a = Counted{};
    EXPECT_EQ(Counted::live, 1);
    Fn b = std::move(a);
    EXPECT_EQ(Counted::live, 1);  // relocation, not duplication
    Fn c;
    c = std::move(b);
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(c(), 1);  // the surviving instance is the original owner
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(InlineFnTest, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(11);
  Fn fn = [p = std::move(p)] { return *p; };
  EXPECT_EQ(fn(), 11);
  Fn moved = std::move(fn);
  EXPECT_EQ(moved(), 11);
}

TEST(InlineFnTest, ResetDestroysAndEmpties) {
  Counted::live = 0;
  Fn fn = Counted{};
  EXPECT_EQ(Counted::live, 1);
  fn.reset();
  EXPECT_EQ(Counted::live, 0);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFnTest, EventFnCapacityFitsSchedulingClosures) {
  // The event queue's callback type must keep enough inline room for the
  // pipeline's nested scheduling closures (see kernel/host.cpp).
  static_assert(EventFn::kInlineCapacity >= 48);
}

}  // namespace
}  // namespace prism::sim
