// Priority queue of timed events, the core of the discrete-event engine.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which makes simulations fully
// deterministic regardless of heap internals.
//
// The heap is a hand-rolled 4-ary min-heap over flat storage. Compared to
// the binary std::priority_queue it replaced, the wider fan-out halves the
// tree depth (fewer cache lines touched per sift) and the entries hold
// their callbacks in InlineFn, so pushing an event never allocates for
// its captures.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_fn.h"
#include "sim/time.h"

namespace prism::sim {

/// Callback invoked when an event fires. Move-only; its captures live
/// inside the object (128 bytes in all), and a closure larger than
/// kInlineCapacity bytes does not compile.
using EventFn = InlineFn<void()>;
static_assert(sizeof(EventFn) == 128, "an event callback is two cache lines");

/// Min-heap of (time, sequence) ordered events.
///
/// Callbacks live in a side slab indexed by the heap entries, so sift
/// operations move 16-byte keys instead of full InlineFn storage; slab
/// slots are recycled through a free list, making steady-state push/pop
/// allocation-free.
class EventQueue {
 public:
  /// Adds an event firing at absolute time `at`. Events scheduled for the
  /// same instant fire in the order they were pushed.
  void push(Time at, EventFn fn);

  /// True when no events remain.
  bool empty() const noexcept { return heap_.empty(); }

  /// Number of pending events.
  std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  Time next_time() const { return heap_.front().at; }

  /// Removes and returns the earliest event's callback.
  /// Precondition: !empty().
  EventFn pop();

  /// Discards all pending events.
  void clear();

 private:
  /// Slab-slot index bits inside Entry::key. Bounds simultaneously
  /// pending events at 2^24 (16 M — far beyond any plausible queue) and
  /// leaves 40 bits of sequence (1.1e12 pushes between clear() calls).
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Entry {
    Time at;
    /// (seq << kSlotBits) | slot. Sequence numbers are unique, so
    /// comparing keys compares sequences; packing keeps the entry at 16
    /// bytes, which is what the sift loops move and compare.
    std::uint64_t key;

    std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(key & kSlotMask);
    }
    bool before(const Entry& other) const noexcept {
      if (at != other.at) return at < other.at;
      return key < other.key;
    }
  };

  static constexpr std::size_t kArity = 4;

  std::vector<Entry> heap_;
  std::vector<EventFn> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace prism::sim
