// Priority queue of timed events, the core of the discrete-event engine.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which makes simulations fully
// deterministic regardless of heap internals.
//
// The heap is a hand-rolled 4-ary min-heap over flat storage. Compared to
// the binary std::priority_queue it replaced, the wider fan-out halves the
// tree depth (fewer cache lines touched per sift). Each callback is built
// once, directly in a slot of a fixed-size chunk, and runs in that slot:
// it is never relocated between push and run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
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
/// Callbacks live in side slots indexed by the heap entries, so sift
/// operations move 16-byte keys instead of full InlineFn storage. The
/// slots sit in fixed-size chunks that never move once allocated: a
/// running callback may push events, which may add a chunk, and must not
/// be relocated from under itself. Freed slots are recycled through a
/// free list, making steady-state push/run allocation-free.
class EventQueue {
 public:
  /// Slots per chunk.
  static constexpr std::size_t kChunkSlots = 256;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Adds an event firing at absolute time `at`, constructing `fn`
  /// directly in its slot. Events scheduled for the same instant fire in
  /// the order they were pushed. If constructing the callback throws,
  /// nothing is queued.
  template <typename F>
  void push(Time at, F&& fn) {
    const std::uint32_t slot = free_slot();
    EventFn& cell = cell_of(slot);
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, EventFn>) {
      cell = std::forward<F>(fn);
    } else {
      cell.emplace(std::forward<F>(fn));
    }
    free_slots_.pop_back();
    link(at, slot);
  }

  /// True when no events remain.
  bool empty() const noexcept { return heap_.empty(); }

  /// Number of pending events (a running callback is no longer pending).
  std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  Time next_time() const { return heap_.front().at; }

  /// Removes the earliest event and runs its callback in its slot. The
  /// slot is freed once the callback returns or throws; the callback may
  /// push further events meanwhile. Precondition: !empty().
  void run_next();

  /// Discards all pending events. Must not be called from a running
  /// callback.
  void clear();

 private:
  /// Slot index bits inside Entry::key. Bounds simultaneously pending
  /// events at 2^24 (16 M — far beyond any plausible queue) and leaves
  /// 40 bits of sequence (1.1e12 pushes between clear() calls).
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

  using Chunk = std::array<EventFn, kChunkSlots>;

  static constexpr std::size_t kArity = 4;

  EventFn& cell_of(std::uint32_t slot) noexcept {
    return (*chunks_[slot / kChunkSlots])[slot % kChunkSlots];
  }

  /// Index of a free slot (adding a chunk when none is left), still on
  /// the free list; push() takes it off once the callback is built.
  std::uint32_t free_slot() {
    if (free_slots_.empty() || (next_seq_ >> (64 - kSlotBits)) != 0) {
      add_chunk();
    }
    return free_slots_.back();
  }

  /// Adds a chunk of free slots. Throws std::length_error when the key
  /// space is exhausted.
  void add_chunk();

  /// Inserts the heap entry for a filled `slot`.
  void link(Time at, std::uint32_t slot);

  /// Destroys the callback in `slot` and returns the slot to the free
  /// list, whose capacity covers every slot: this never allocates.
  void retire(std::uint32_t slot) noexcept {
    cell_of(slot).reset();
    free_slots_.push_back(slot);
  }

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  /// Never reallocates outside add_chunk(): its capacity covers every
  /// slot, so run_next() can return a slot without allocating.
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace prism::sim
