#include "kernel/skb_pool.h"

#include <thread>

namespace prism::kernel {

namespace {

const std::thread::id kMainThread = std::this_thread::get_id();

/// Same per-thread lifecycle as sim::BufferPool::instance(): lane workers
/// free their pool on thread exit, the main thread's is intentionally
/// leaked so static-storage SkbPtrs may release during shutdown.
struct TlsSkbPool {
  SkbPool* pool = new SkbPool();
  ~TlsSkbPool() {
    if (std::this_thread::get_id() != kMainThread) delete pool;
  }
};

}  // namespace

SkbPool& SkbPool::instance() noexcept {
  // One slab per thread, so each lane-engine worker allocates and
  // recycles skbs lock-free. Skbs never cross lanes (only raw frames
  // travel the wire); one still queued when run_until returns may be
  // released on another worker in a later run, which is harmless — a
  // free list has no affinity requirement.
  thread_local TlsSkbPool tls;
  return *tls.pool;
}

SkbPool::Handle SkbPool::acquire() { return Handle(pool_.acquire()); }

void SkbPool::release(Skb* skb) {
  // Scrub back to the default-constructed state. The PacketBuf assignments
  // recycle the byte storage into the BufferPool; gro_chain keeps its
  // vector capacity (clear, not shrink) so re-merging costs nothing.
  skb->buf = net::PacketBuf{};
  skb->priority = 0;
  skb->segments = 1;
  skb->gro_chain.clear();
  skb->dst_netns = nullptr;
  skb->stage = 0;
  skb->parsed.reset();
  skb->traced = false;
  skb->observed_class = 0;
  skb->head_class_at_enqueue = -1;
  skb->flowcache_gen = 0;
  skb->ts = SkbTimestamps{};
  pool_.release(skb);
}

void SkbRecycler::operator()(Skb* skb) const noexcept {
  if (skb != nullptr) SkbPool::instance().release(skb);
}

SkbPtr alloc_skb() { return SkbPool::instance().acquire(); }

}  // namespace prism::kernel
