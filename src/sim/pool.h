// Free-list object recycling for the simulation hot path.
//
// The steady-state packet loop should not touch the heap: buffers and
// objects released at the end of one packet's lifetime are parked on a
// free list and handed back to the next packet. PoolStats counts every
// acquire/release so benchmarks can assert the hit rate (a warm pool
// serves >99% of acquires from the free list).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace prism::sim {

/// Counters exported by every recycling pool (see stats/summary.h).
struct PoolStats {
  std::uint64_t acquired = 0;   ///< total acquire() calls
  std::uint64_t reused = 0;     ///< acquires served from the free list
  std::uint64_t allocated = 0;  ///< acquires that fell through to the heap
  std::uint64_t released = 0;   ///< returns parked on the free list
  std::uint64_t discarded = 0;  ///< returns freed (pool full or disabled)

  /// Fraction of acquires served without a heap allocation.
  double hit_rate() const noexcept {
    if (acquired == 0) return 0.0;
    return static_cast<double>(reused) / static_cast<double>(acquired);
  }

  void reset() noexcept { *this = PoolStats{}; }
};

/// Generic free-list recycler for default-constructible objects.
///
/// acquire() pops a previously released object (or heap-allocates when the
/// list is dry); release() parks the object for reuse. The caller is
/// responsible for scrubbing object state between uses — the pool neither
/// constructs nor destructs recycled objects. Disabling the pool turns it
/// into a plain new/delete pass-through, which keeps allocation behaviour
/// bit-for-bit comparable in determinism A/B tests.
template <typename T>
class ObjectPool {
 public:
  static constexpr std::size_t kDefaultMaxFree = 8192;

  explicit ObjectPool(std::size_t max_free = kDefaultMaxFree)
      : max_free_(max_free) {
    free_.reserve(max_free_ < 1024 ? max_free_ : 1024);
  }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  ~ObjectPool() { trim(); }

  /// Returns a recycled object or a fresh heap allocation. Ownership
  /// passes to the caller (wrap in an RAII handle that calls release()).
  T* acquire() {
    ++stats_.acquired;
    if (enabled_ && !free_.empty()) {
      ++stats_.reused;
      T* obj = free_.back();
      free_.pop_back();
      return obj;
    }
    ++stats_.allocated;
    return new T();
  }

  /// Parks `obj` for reuse; frees it when the pool is disabled or full.
  void release(T* obj) {
    if (!enabled_ || free_.size() >= max_free_) {
      ++stats_.discarded;
      delete obj;
      return;
    }
    ++stats_.released;
    free_.push_back(obj);
  }

  /// Frees every parked object.
  void trim() {
    for (T* obj : free_) delete obj;
    free_.clear();
  }

  /// A disabled pool passes straight through to new/delete.
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (!enabled_) trim();
  }
  bool enabled() const noexcept { return enabled_; }

  std::size_t free_objects() const noexcept { return free_.size(); }

  const PoolStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

 private:
  std::vector<T*> free_;
  std::size_t max_free_;
  bool enabled_ = true;
  PoolStats stats_;
};

/// One pooled frame allocation: this header, then `capacity` bytes. The
/// packet occupies [begin, end) of those bytes; the space in front of
/// `begin` is headroom for prepended headers.
struct alignas(16) FrameBlock {
  std::uint32_t capacity = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  std::uint8_t* bytes() noexcept {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
  const std::uint8_t* bytes() const noexcept {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
};

/// Per-thread free lists of the frame blocks behind net::PacketBuf.
///
/// A PacketBuf acquires its block here when a frame is built and returns
/// it when the last handle lets go (after the socket hands the datagram
/// to the application), so the block is re-issued to the next frame.
/// Blocks come in size classes, each with its own LIFO free list: a small
/// block (kSmallBytes: an ACK, a 64-byte datagram, a short request) and a
/// frame block (kFrameBytes: an MTU frame plus encapsulation headroom)
/// have their class's full capacity, so any parked block of a class
/// serves any request of it, whatever order frames of other classes come
/// and go in. Larger blocks share one list; one of those keeps its
/// capacity across reuse and is replaced only when a request needs more.
/// Blocks larger than kMaxRetainedBytes are freed rather than parked, so
/// one jumbo frame cannot pin memory forever. Nothing is zero-filled:
/// bytes outside what the caller writes are unspecified.
class BufferPool {
 public:
  static constexpr std::size_t kDefaultMaxFree = 16384;
  static constexpr std::size_t kMaxRetainedBytes = 256 * 1024;
  /// Capacity of every block of the small class.
  static constexpr std::size_t kSmallBytes = 256;
  /// Capacity of every block of the frame class.
  static constexpr std::size_t kFrameBytes = 2048;

  /// The calling thread's instance — one pool per thread so parallel
  /// simulation lanes recycle without locks. The main thread's pool is
  /// never destroyed (PacketBufs with static storage duration may release
  /// blocks during shutdown); lane workers free theirs at thread exit.
  static BufferPool& instance() noexcept;

  BufferPool() {
    free_[kSmall].reserve(1024);
    free_[kFrame].reserve(1024);
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool() { trim(); }

  /// Returns a block of at least `capacity` bytes with begin == end == 0.
  /// A parked large block too small for `capacity` is freed and replaced
  /// by a fresh one, which counts as `allocated`.
  FrameBlock* acquire(std::size_t capacity) {
    ++stats_.acquired;
    const std::size_t cls = class_of(capacity);
    std::vector<FrameBlock*>& list = free_[cls];
    if (enabled_ && !list.empty()) {
      FrameBlock* block = list.back();
      list.pop_back();
      if (block->capacity >= capacity) {
        ++stats_.reused;
        block->begin = 0;
        block->end = 0;
        return block;
      }
      destroy(block);
    }
    ++stats_.allocated;
    return create(cls == kSmall   ? kSmallBytes
                  : cls == kFrame ? kFrameBytes
                                  : capacity);
  }

  /// Parks `block` on its class's list; frees it when the pool is
  /// disabled or full, or the block is larger than kMaxRetainedBytes.
  void release(FrameBlock* block) noexcept {
    if (!enabled_ || free_buffers() >= max_free_ ||
        block->capacity > kMaxRetainedBytes) {
      ++stats_.discarded;
      destroy(block);
      return;
    }
    ++stats_.released;
    free_[class_of(block->capacity)].push_back(block);
  }

  /// Frees every parked block.
  void trim() noexcept {
    for (auto& list : free_) {
      for (FrameBlock* block : list) destroy(block);
      list.clear();
    }
  }

  /// A disabled pool passes straight through to new/delete.
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (!enabled_) trim();
  }
  bool enabled() const noexcept { return enabled_; }

  std::size_t free_buffers() const noexcept {
    return free_[kSmall].size() + free_[kFrame].size() +
           free_[kLarge].size();
  }

  const PoolStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

 private:
  enum : std::size_t { kSmall, kFrame, kLarge, kNumClasses };

  static std::size_t class_of(std::size_t capacity) noexcept {
    return capacity <= kSmallBytes   ? kSmall
           : capacity <= kFrameBytes ? kFrame
                                     : kLarge;
  }
  static FrameBlock* create(std::size_t capacity) {
    void* mem = ::operator new(sizeof(FrameBlock) + capacity);
    return ::new (mem) FrameBlock{static_cast<std::uint32_t>(capacity), 0, 0};
  }
  static void destroy(FrameBlock* block) noexcept { ::operator delete(block); }

  std::vector<FrameBlock*> free_[kNumClasses];
  std::size_t max_free_ = kDefaultMaxFree;
  bool enabled_ = true;
  PoolStats stats_;
};

}  // namespace prism::sim
