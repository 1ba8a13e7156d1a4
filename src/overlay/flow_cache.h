// ONCache-style per-flow overlay transform cache — the stage-1 fast path.
//
// Every overlay packet today walks the full reception pipeline: VXLAN
// decap (stage 1), bridge FDB lookup (stage 2), veth/backlog transit and
// protocol delivery (stage 3) — even the millionth packet of a long-lived
// flow, whose transform never changes. Following "ONCache: A Cache-Based
// Low-Overhead Container Overlay Network" (PAPERS.md), this cache records
// the complete transform the slow path computed for a flow's first packet
// — the decap decision, the FDB-resolved destination namespace, and the
// classified PRISM priority — keyed by (inner five-tuple, VNI). Hits let
// subsequent packets skip from the stage-1 poll directly to socket
// delivery, charging CostModel::flowcache_lookup + flowcache_fast_path
// instead of the stage-2/3 machinery.
//
// Correctness hinges on invalidation, not on the lookup. The cache keeps
// one monotonic generation counter; every entry records the generation
// current when its flow was *classified* (stage 1 of the filling packet).
// Any event that could change a transform bumps the generation:
//
//   * every FDB add/remove/remap (Fdb::set_mutation_hook),
//   * every overlay-route change (Host::add_overlay_route),
//   * every PriorityDb mutation (classification could change),
//   * every NAPI-mode switch (vanilla does not classify; its fills say 0),
//   * every fault-injected decap corruption (the transform just observed
//     bytes the slow path would handle differently).
//
// A hit whose recorded generation is stale counts as a miss (the entry is
// dropped and the packet re-walks the slow path, which repopulates), so a
// packet is never delivered through an invalidated transform. Because the
// generation is captured at classification time and checked at use time,
// a mutation that lands between a packet's classification and its stage-2
// fill also voids the entry — the fill is dead on arrival instead of
// poisoning the cache.
//
// The cache is per-host (one host per event lane), so the parallel lane
// engine needs no synchronization and same-seed runs stay byte-identical
// at any thread count. Eviction is LRU over a bounded table — fully
// deterministic, no clocks or randomness.
//
// HostConfig::flow_cache (default off) is the switch: a disabled cache
// never hits, so the datapath always walks the slow path.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "net/flow.h"
#include "telemetry/metrics.h"

// Always 1 (the flow cache is always compiled in); perfbench's build
// banner prints it.
#define PRISM_FLOWCACHE_ENABLED 1

namespace prism::overlay {

class Netns;

/// Cache key: the decapsulated flow plus the overlay it belongs to (two
/// VNIs may legitimately carry the same inner five-tuple).
struct FlowCacheKey {
  net::FiveTuple flow;
  std::uint32_t vni = 0;
  bool operator==(const FlowCacheKey&) const = default;
};

struct FlowCacheKeyHash {
  std::size_t operator()(const FlowCacheKey& k) const noexcept {
    // Splitmix-style fold of the (deterministic) flow hash with the VNI,
    // matching std::hash<FiveTuple>'s platform independence.
    std::uint64_t h = std::hash<net::FiveTuple>{}(k.flow) ^
                      (std::uint64_t{k.vni} * 0x9e3779b97f4a7c15ull);
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

/// The recorded transform: everything the slow path computed that the
/// fast path replays.
struct FlowCacheEntry {
  Netns* dst = nullptr;  ///< FDB-resolved destination namespace
  int priority = 0;      ///< PriorityDb::classify at fill (0 in vanilla)
  std::uint64_t generation = 0;  ///< cache generation at classification
};

/// Bounded per-host flow -> transform cache with generation invalidation.
class FlowCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit FlowCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? kDefaultCapacity : capacity) {}

  FlowCache(const FlowCache&) = delete;
  FlowCache& operator=(const FlowCache&) = delete;

  /// Runtime switch (default off — the cache is opt-in per host). Off,
  /// lookup() always misses without counting and insert() is a no-op.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  /// Current generation; captured at classification time and stored into
  /// the filling skb so the entry validates against the world the
  /// classification saw.
  std::uint64_t generation() const noexcept { return generation_; }

  /// Voids every cached transform by bumping the generation. Entries are
  /// reclaimed lazily, on their next (stale) hit or by LRU eviction.
  void invalidate() noexcept {
    ++generation_;
    invalidations_.inc();
  }

  /// Returns the still-valid transform for (flow, vni), or nullptr. A
  /// generation-stale entry counts in stale_hits(), is dropped, and reads
  /// as a miss — the caller re-walks the slow path, which repopulates.
  const FlowCacheEntry* lookup(const net::FiveTuple& flow,
                               std::uint32_t vni);

  /// Records the transform the slow path just resolved. `generation` is
  /// the value generation() returned when this packet was classified; a
  /// fill that raced an invalidation stores an already-stale entry, which
  /// the next lookup discards. No-op when disabled.
  void insert(const net::FiveTuple& flow, std::uint32_t vni, Netns* dst,
              int priority, std::uint64_t generation);

  // ------------------------------------------------------------- stats
  std::size_t size() const noexcept { return map_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t hits() const noexcept { return hits_.value(); }
  std::uint64_t misses() const noexcept { return misses_.value(); }
  /// Lookups that found an entry from a voided generation (subset of
  /// misses() — every stale hit is also counted as a miss).
  std::uint64_t stale_hits() const noexcept { return stale_.value(); }
  std::uint64_t insertions() const noexcept { return insertions_.value(); }
  std::uint64_t evictions() const noexcept { return evictions_.value(); }
  std::uint64_t invalidations() const noexcept {
    return invalidations_.value();
  }
  /// Steady-state quality: hits / (hits + misses), 0 when idle.
  double hit_rate() const noexcept {
    const std::uint64_t total = hits() + misses();
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) /
                            static_cast<double>(total);
  }

  /// Drops every entry and counter (generation and configuration kept).
  void reset();

  /// Registers cache counters under `prefix` (e.g. "flowcache.").
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix);

 private:
  using LruList = std::list<std::pair<FlowCacheKey, FlowCacheEntry>>;

  bool enabled_ = false;
  std::size_t capacity_;
  std::uint64_t generation_ = 0;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<FlowCacheKey, LruList::iterator, FlowCacheKeyHash>
      map_;
  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter stale_;
  telemetry::Counter insertions_;
  telemetry::Counter evictions_;
  telemetry::Counter invalidations_;
};

}  // namespace prism::overlay
