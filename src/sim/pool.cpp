#include "sim/pool.h"

#include <thread>

namespace prism::sim {

namespace {

/// The thread that ran static initialization — i.e. the main thread.
/// Lane workers compare against it to decide their pool's fate at exit.
const std::thread::id kMainThread = std::this_thread::get_id();

/// Thread-exit holder: lane-engine worker threads free their pool when the
/// thread dies (LeakSanitizer would otherwise report the unreachable
/// thread-local allocation), while the main thread's pool is intentionally
/// leaked — PacketBufs owned by objects with static storage duration
/// release their buffers during program shutdown, after normal static (and
/// main-thread thread_local) destructors would have torn the pool down.
struct TlsBufferPool {
  BufferPool* pool = new BufferPool();
  ~TlsBufferPool() {
    if (std::this_thread::get_id() != kMainThread) delete pool;
  }
};

}  // namespace

BufferPool& BufferPool::instance() noexcept {
  // One pool per thread: each lane-engine worker recycles buffers
  // through its own free list, so the packet hot path stays lock-free at
  // any thread count. Buffers migrate between pools when a lane runs on
  // another worker in a later run_until than the one that acquired them,
  // which is harmless — a free list has no affinity requirement.
  thread_local TlsBufferPool tls;
  return *tls.pool;
}

}  // namespace prism::sim
