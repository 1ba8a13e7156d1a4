// Growable FIFO ring buffer, the datapath's per-packet queue.
//
// std::deque allocates a fresh block every few pushes as its head walks
// forward, and std::list allocates a node per element; either puts the
// allocator on the per-packet path. A Ring keeps its elements in one
// power-of-two array of raw slots indexed modulo the capacity: pushes
// and pops move a head index and construct or destroy in place. The
// array doubles when full and never shrinks, so once a queue has reached
// its working depth the steady state allocates nothing — the role the
// kernel's preallocated descriptor rings and embedded poll_list play.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace prism::sim {

/// FIFO over a power-of-two circular array of raw slots.
///
/// Storage is allocated on the first push (an unused ring costs nothing)
/// and doubles whenever a push finds it full. pop_front() and clear()
/// destroy elements in place, so an element's destructor runs exactly
/// once, when it leaves the ring. References to elements are invalidated
/// by any push that grows the ring, and by erase().
template <typename T>
class Ring {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growth relocates elements and must not throw");

 public:
  /// Capacity of the first allocation.
  static constexpr std::size_t kInitialCapacity = 8;

  Ring() noexcept = default;
  ~Ring() {
    clear();
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Slots allocated (0 before the first push).
  std::size_t capacity() const noexcept { return capacity_; }

  /// The i-th element from the front (0 = front).
  T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }
  const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }

  T& front() noexcept { return (*this)[0]; }
  const T& front() const noexcept { return (*this)[0]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void push_front(const T& v) { emplace_front(v); }
  void push_front(T&& v) { emplace_front(std::move(v)); }

  /// Destroys the front element in place.
  void pop_front() noexcept {
    assert(size_ > 0);
    std::destroy_at(&slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Removes the i-th element, keeping the others in order. Linear in
  /// the elements behind it; meant for short lists (a CPU's poll list).
  void erase(std::size_t i) noexcept {
    assert(i < size_);
    for (std::size_t k = i; k + 1 < size_; ++k) {
      (*this)[k] = std::move((*this)[k + 1]);
    }
    std::destroy_at(&(*this)[size_ - 1]);
    --size_;
  }

  /// Destroys every element in place; the storage is kept.
  void clear() noexcept {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  std::size_t wrap(std::size_t i) const noexcept {
    return i & (capacity_ - 1);
  }

  template <typename U>
  void emplace_back(U&& v) {
    if (size_ == capacity_) {
      grow_with(size_, std::forward<U>(v));
    } else {
      ::new (static_cast<void*>(&slots_[wrap(head_ + size_)]))
          T(std::forward<U>(v));
    }
    ++size_;
  }

  template <typename U>
  void emplace_front(U&& v) {
    if (size_ == capacity_) {
      // The old elements land at [0, size_) of the grown array, so the
      // new front takes its last slot and the head wraps there.
      const std::size_t last = grown_capacity() - 1;
      grow_with(last, std::forward<U>(v));
      head_ = last;
    } else {
      const std::size_t slot = wrap(head_ + capacity_ - 1);
      ::new (static_cast<void*>(&slots_[slot])) T(std::forward<U>(v));
      head_ = slot;
    }
    ++size_;
  }

  std::size_t grown_capacity() const noexcept {
    return capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
  }

  /// Allocates the doubled array, constructs `v` at its `slot`, then
  /// relocates the old elements to [0, size_) and frees the old array
  /// (head_ becomes 0). Building the new element first lets `v` alias an
  /// element of this ring.
  template <typename U>
  void grow_with(std::size_t slot, U&& v) {
    const std::size_t grown = grown_capacity();
    T* fresh = std::allocator<T>().allocate(grown);
    try {
      ::new (static_cast<void*>(fresh + slot)) T(std::forward<U>(v));
    } catch (...) {
      std::allocator<T>().deallocate(fresh, grown);
      throw;
    }
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = (*this)[i];
      ::new (static_cast<void*>(fresh + i)) T(std::move(old));
      std::destroy_at(&old);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = fresh;
    capacity_ = grown;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  ///< 0 or a power of two
  std::size_t head_ = 0;      ///< slot of the front element
  std::size_t size_ = 0;
};

}  // namespace prism::sim
