#include "telemetry/metrics.h"

#include <algorithm>
#include <unordered_map>

namespace prism::telemetry {

namespace {

template <class T>
void add_entry(std::vector<std::pair<std::string, const T*>>& entries,
               std::string_view name, const T& member) {
  for (const auto& [n, m] : entries) {
    if (m == &member && n == name) return;
  }
  entries.emplace_back(std::string(name), &member);
}

/// Merges `entries` by name in first-seen order: `fold(sample, member)`
/// accumulates each member into its name's sample.
template <class Sample, class T, class Fold>
std::vector<Sample> merge(
    const std::vector<std::pair<std::string, const T*>>& entries,
    Fold fold) {
  std::vector<Sample> out;
  std::unordered_map<std::string_view, std::size_t> slot;
  for (const auto& [name, member] : entries) {
    const auto [it, fresh] = slot.emplace(name, out.size());
    if (fresh) out.push_back(Sample{name});
    fold(out[it->second], *member);
  }
  return out;
}

}  // namespace

void Registry::add(std::string_view name, const Counter& counter) {
  add_entry(counters_, name, counter);
}

void Registry::add(std::string_view name, const Gauge& gauge) {
  add_entry(gauges_, name, gauge);
}

std::uint64_t Registry::counter_value(
    std::string_view name) const noexcept {
  std::uint64_t sum = 0;
  for (const auto& [n, c] : counters_) {
    if (n == name) sum += c->value();
  }
  return sum;
}

std::vector<CounterSample> Registry::counters() const {
  return merge<CounterSample>(
      counters_, [](CounterSample& s, const Counter& c) {
        s.value += c.value();
      });
}

std::vector<GaugeSample> Registry::gauges() const {
  return merge<GaugeSample>(gauges_, [](GaugeSample& s, const Gauge& g) {
    s.value += g.value();
    s.max_value = std::max(s.max_value, g.max_value());
  });
}

}  // namespace prism::telemetry
