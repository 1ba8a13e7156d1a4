#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace prism::sim {

void EventQueue::add_chunk() {
  const std::size_t base = chunks_.size() * kChunkSlots;
  if ((next_seq_ >> (64 - kSlotBits)) != 0 ||
      base + kChunkSlots > kSlotMask + 1) {
    throw std::length_error("EventQueue: key space exhausted");
  }
  chunks_.push_back(std::make_unique<Chunk>());
  free_slots_.reserve(base + kChunkSlots);
  // Lowest index on top, so a fresh chunk fills front to back.
  for (std::size_t i = kChunkSlots; i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(base + i));
  }
}

void EventQueue::link(Time at, std::uint32_t slot) {
  // Sift up by moving a "hole" toward the root: each displaced parent is
  // moved exactly once instead of being swapped.
  const Entry e{at, (next_seq_++ << kSlotBits) | slot};
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::run_next() {
  const std::uint32_t slot = heap_.front().slot();

  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift the former last entry down from the root, moving the smallest
    // child up into the hole at each level.
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = std::min(first_child + kArity, n);
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (heap_[c].before(heap_[best])) best = c;
      }
      if (!heap_[best].before(last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  // The slot stays taken while its callback runs, so the callback's own
  // pushes land elsewhere; it is destroyed and freed on return or throw.
  try {
    cell_of(slot)();
  } catch (...) {
    retire(slot);
    throw;
  }
  retire(slot);
}

void EventQueue::clear() {
  heap_.clear();
  chunks_.clear();
  free_slots_.clear();
  next_seq_ = 0;
}

}  // namespace prism::sim
