// Bridge forwarding database.
//
// Maps inner destination MACs to local bridge ports (container
// namespaces). Docker's overlay driver programs these entries statically
// when containers attach; the simulator's overlay manager does the same.
// Remote MACs are not stored here — they are resolved at encapsulation
// time by the VXLAN tunnel endpoint table.
//
// Every mutation bumps a generation counter and fires an optional
// mutation hook: consumers that cache FDB-derived state (the overlay
// flow cache, overlay/flow_cache.h) key their entries to the generation
// at fill time, so a remap is visible as staleness instead of a
// mis-delivery. An `add` that replaces an existing MAC's port is counted
// separately (`overwrites`) — silent overwrite is exactly the event a
// cached transform must observe.
//
// Misses split two ways: a MAC the bridge never learned (wiring bug or
// foreign traffic) versus a MAC that was explicitly `remove`d (container
// teardown / migration). The latter is counted separately as an
// *unlearned* miss so churn-induced loss is attributable in telemetry.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "net/mac.h"
#include "telemetry/metrics.h"

namespace prism::overlay {

class Netns;

/// Static MAC -> local port (container) table with miss counting.
class Fdb {
 public:
  /// Maps `mac` to `container`. Returns true when the table changed:
  /// either a new entry, or an existing MAC remapped to a different port
  /// (counted in overwrites()). Re-adding the identical mapping is a
  /// no-op and returns false. Any change bumps generation(). A re-added
  /// MAC is no longer "unlearned": later misses count as plain misses.
  bool add(net::MacAddr mac, Netns& container) {
    auto [it, inserted] = entries_.try_emplace(mac, &container);
    if (!inserted) {
      if (it->second == &container) return false;
      it->second = &container;
      ++overwrites_;
    }
    removed_.erase(mac);
    bump();
    return true;
  }

  /// Removes `mac`. Returns false when no such entry existed (so a typo'd
  /// remove is distinguishable from success); a real removal bumps
  /// generation() and marks the MAC unlearned.
  bool remove(net::MacAddr mac) {
    if (entries_.erase(mac) == 0) return false;
    removed_.insert(mac);
    bump();
    return true;
  }

  /// Returns the container behind `mac`, or nullptr (counted as a miss;
  /// additionally as an unlearned miss when the MAC was removed earlier).
  Netns* lookup(net::MacAddr mac) {
    const auto it = entries_.find(mac);
    if (it == entries_.end()) {
      misses_.inc();
      if (removed_.count(mac) != 0) unlearned_misses_.inc();
      return nullptr;
    }
    return it->second;
  }

  std::size_t size() const noexcept { return entries_.size(); }
  std::uint64_t misses() const noexcept { return misses_.value(); }
  /// Misses on MACs that were explicitly removed (teardown / migration),
  /// as opposed to never-learned MACs. Subset of misses().
  std::uint64_t unlearned_misses() const noexcept {
    return unlearned_misses_.value();
  }
  /// `add` calls that replaced an existing MAC's port with a different one.
  std::uint64_t overwrites() const noexcept { return overwrites_; }
  /// Monotonic mutation counter: incremented by every table change.
  std::uint64_t generation() const noexcept { return generation_; }

  /// Called after every table change (add/remap/remove). One hook per
  /// FDB; the host installs it to invalidate the overlay flow cache.
  void set_mutation_hook(std::function<void()> hook) {
    mutation_hook_ = std::move(hook);
  }

  /// Registers miss counters under `prefix` (e.g. "overlay.br42.fdb.miss"
  /// and "overlay.br42.fdb.unlearned_miss").
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix) {
    reg.add(prefix + "fdb.miss", misses_);
    reg.add(prefix + "fdb.unlearned_miss", unlearned_misses_);
  }

 private:
  void bump() {
    ++generation_;
    if (mutation_hook_) mutation_hook_();
  }

  std::unordered_map<net::MacAddr, Netns*> entries_;
  std::unordered_set<net::MacAddr> removed_;
  telemetry::Counter misses_;
  telemetry::Counter unlearned_misses_;
  std::uint64_t overwrites_ = 0;
  std::uint64_t generation_ = 0;
  std::function<void()> mutation_hook_;
};

}  // namespace prism::overlay
