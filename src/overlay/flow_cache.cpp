#include "overlay/flow_cache.h"

namespace prism::overlay {

const FlowCacheEntry* FlowCache::lookup(const net::FiveTuple& flow,
                                        std::uint32_t vni) {
  if (!enabled_) return nullptr;
  const FlowCacheKey key{flow, vni};
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    t_misses_->inc();
    return nullptr;
  }
  if (it->second->second.generation != generation_) {
    // Stale: the world changed since this transform was recorded. Drop
    // the entry and report a miss — the slow path re-resolves and
    // repopulates with the current generation.
    ++stale_;
    ++misses_;
    t_stale_->inc();
    t_misses_->inc();
    lru_.erase(it->second);
    map_.erase(it);
    return nullptr;
  }
  // Move to MRU position. splice() keeps iterators valid.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  t_hits_->inc();
  return &it->second->second;
}

void FlowCache::insert(const net::FiveTuple& flow, std::uint32_t vni,
                       Netns* dst, int priority,
                       std::uint64_t generation) {
  if (!enabled_ || dst == nullptr) return;
  const FlowCacheKey key{flow, vni};
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Refresh in place (e.g. repopulation after an invalidation).
    it->second->second = FlowCacheEntry{dst, priority, generation};
    lru_.splice(lru_.begin(), lru_, it->second);
    ++insertions_;
    t_insertions_->inc();
    return;
  }
  if (map_.size() >= capacity_) {
    const auto& victim = lru_.back();
    map_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
    t_evictions_->inc();
  }
  lru_.emplace_front(key, FlowCacheEntry{dst, priority, generation});
  map_.emplace(key, lru_.begin());
  ++insertions_;
  t_insertions_->inc();
}

void FlowCache::reset() {
  lru_.clear();
  map_.clear();
  hits_ = 0;
  misses_ = 0;
  stale_ = 0;
  insertions_ = 0;
  evictions_ = 0;
  invalidations_ = 0;
}

void FlowCache::bind_telemetry(telemetry::Registry& reg,
                               const std::string& prefix) {
  t_hits_ = &reg.counter(prefix + "hits");
  t_misses_ = &reg.counter(prefix + "misses");
  t_stale_ = &reg.counter(prefix + "stale");
  t_insertions_ = &reg.counter(prefix + "insertions");
  t_evictions_ = &reg.counter(prefix + "evictions");
  t_invalidations_ = &reg.counter(prefix + "invalidations");
}

}  // namespace prism::overlay
