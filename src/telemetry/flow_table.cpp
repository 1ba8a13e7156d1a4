#include "telemetry/flow_table.h"

#include <iterator>
#include <stdexcept>

#include "fault/fault.h"
#include "telemetry/json_writer.h"

namespace prism::telemetry {

std::vector<int> FlowTable::Entry::recent_drop_reasons() const {
  const std::size_t n =
      drops < kDropHistory ? static_cast<std::size_t>(drops) : kDropHistory;
  std::vector<int> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(last_drop_reasons[(drop_history_head + kDropHistory - 1 -
                                     i) %
                                    kDropHistory]);
  }
  return out;
}

FlowTable::FlowTable(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("FlowTable: capacity must be positive");
  }
  index_.reserve(capacity);
}

FlowTable::Entry& FlowTable::touch(const net::FiveTuple& flow,
                                   sim::Time at) {
  const auto it = index_.find(flow);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->last_seen = at;
    return *it->second;
  }
  if (index_.size() >= capacity_) {
    // Evict the least-recently-seen flow, reusing its node (and its
    // histogram's bucket storage) for the newcomer.
    auto victim = std::prev(lru_.end());
    index_.erase(victim->flow);
    ++evictions_;
    lru_.splice(lru_.begin(), lru_, victim);
    Entry& e = lru_.front();
    e.flow = flow;
    e.level = 0;
    e.packets = 0;
    e.bytes = 0;
    e.drops = 0;
    e.first_seen = at;
    e.last_seen = at;
    e.latency.reset();
    e.last_drop_reasons.fill(0);
    e.drop_history_head = 0;
    index_.emplace(flow, lru_.begin());
    return e;
  }
  lru_.emplace_front();
  Entry& e = lru_.front();
  e.flow = flow;
  e.first_seen = at;
  e.last_seen = at;
  index_.emplace(flow, lru_.begin());
  return e;
}

void FlowTable::record(const net::FiveTuple& flow, std::size_t bytes,
                       int level, sim::Duration e2e_ns, sim::Time at) {
  if (!enabled_) return;
  Entry& e = touch(flow, at);
  e.level = level;
  ++e.packets;
  e.bytes += bytes;
  if (e2e_ns >= 0) e.latency.record(e2e_ns);
}

void FlowTable::record_drop(const net::FiveTuple& flow, int level,
                            sim::Time at, int reason) {
  if (!enabled_) return;
  Entry& e = touch(flow, at);
  e.level = level;
  ++e.drops;
  e.last_drop_reasons[e.drop_history_head] =
      static_cast<std::int8_t>(reason);
  e.drop_history_head = static_cast<std::uint8_t>(
      (e.drop_history_head + 1) % kDropHistory);
}

const FlowTable::Entry* FlowTable::lookup(
    const net::FiveTuple& flow) const {
  const auto it = index_.find(flow);
  return it == index_.end() ? nullptr : &*it->second;
}

std::vector<const FlowTable::Entry*> FlowTable::entries() const {
  std::vector<const Entry*> out;
  out.reserve(index_.size());
  for (const Entry& e : lru_) out.push_back(&e);
  return out;
}

void FlowTable::reset() {
  lru_.clear();
  index_.clear();
  evictions_ = 0;
}

void write_flow_table_json(JsonWriter& w, const FlowTable& table) {
  w.begin_object();
  w.member("enabled", table.enabled());
  w.member("capacity", static_cast<std::uint64_t>(table.capacity()));
  w.member("tracked", static_cast<std::uint64_t>(table.size()));
  w.member("evictions", table.evictions());
  w.key("flows").begin_array();
  for (const auto* e : table.entries()) {
    w.begin_object();
    w.member("flow", e->flow.to_string());
    w.member("class", static_cast<std::int64_t>(e->level));
    w.member("packets", e->packets);
    w.member("bytes", e->bytes);
    w.member("drops", e->drops);
    w.member("first_seen_ns", e->first_seen);
    w.member("last_seen_ns", e->last_seen);
    w.member("latency_count", e->latency.count());
    w.member("latency_mean_ns", e->latency.mean());
    w.member("latency_p50_ns", e->latency.percentile(0.50));
    w.member("latency_p99_ns", e->latency.percentile(0.99));
    w.member("latency_max_ns", e->latency.max());
    w.key("last_drop_reasons").begin_array();
    for (const int code : e->recent_drop_reasons()) {
      w.value(code >= 0 && code < static_cast<int>(fault::DropReason::kCount)
                  ? fault::drop_reason_name(
                        static_cast<fault::DropReason>(code))
                  : "unknown");
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string flow_table_json(const FlowTable& table) {
  JsonWriter w;
  write_flow_table_json(w, table);
  return w.take();
}

}  // namespace prism::telemetry
