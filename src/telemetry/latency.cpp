#include "telemetry/latency.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "stats/table.h"
#include "telemetry/json_writer.h"

namespace prism::telemetry {

const char* latency_stage_name(LatencyStage stage) {
  switch (stage) {
    case LatencyStage::kRingWait: return "ring_wait";
    case LatencyStage::kStage1Service: return "stage1_service";
    case LatencyStage::kStage2Wait: return "stage2_wait";
    case LatencyStage::kStage2Service: return "stage2_service";
    case LatencyStage::kStage3Wait: return "stage3_wait";
    case LatencyStage::kStage3Service: return "stage3_service";
    case LatencyStage::kFlowCache: return "flow_cache";
    case LatencyStage::kEndToEnd: return "end_to_end";
    case LatencyStage::kIrqToPoll: return "irq_to_poll";
    case LatencyStage::kSocketWait: return "socket_wait";
    case LatencyStage::kCount: break;
  }
  return "?";
}

LatencyLedger::LatencyLedger(sim::Duration window_interval,
                             std::size_t window_capacity)
    : interval_(window_interval) {
  if (window_interval <= 0) {
    throw std::invalid_argument(
        "LatencyLedger: window_interval must be positive");
  }
  if (window_capacity == 0) {
    throw std::invalid_argument(
        "LatencyLedger: window_capacity must be positive");
  }
  hists_.reserve(static_cast<std::size_t>(kNumLatencyStages) *
                 static_cast<std::size_t>(kNumLatencyClasses));
  for (int s = 0; s < kNumLatencyStages; ++s) {
    for (int c = 0; c < kNumLatencyClasses; ++c) hists_.emplace_back();
  }
  ring_.resize(window_capacity);
}

void LatencyLedger::set_window_interval(sim::Duration interval) {
  if (interval <= 0) {
    throw std::invalid_argument(
        "LatencyLedger: window_interval must be positive");
  }
  interval_ = interval;
  for (auto& w : ring_) {
    w.index = -1;
    w.count = 0;
    for (auto& h : w.per_level) {
      if (h) h->reset();
    }
  }
  evicted_ = 0;
  late_ = 0;
}

void LatencyLedger::record_delivery(const kernel::SkbTimestamps& ts,
                                    int level) {
  if (!enabled_) return;
  if (ts.nic_rx < 0 || ts.socket_enqueue < 0) {
    ++unattributed_;
    return;
  }
  const int c = clamp_level(level);
  // Consecutive traversed segments telescope: the sum of the recorded
  // durations equals socket_enqueue - nic_rx exactly (the reconciliation
  // test's invariant). Host-path packets skip the -1 stage-2/3 stamps.
  sim::Time prev = ts.nic_rx;
  const auto segment = [&](LatencyStage s, sim::Time t) {
    if (t < 0) return;
    cell(s, c).record(t - prev);
    prev = t;
  };
  segment(LatencyStage::kRingWait, ts.stage1_start);
  segment(LatencyStage::kStage1Service, ts.stage1_done);
  segment(LatencyStage::kStage2Wait, ts.stage2_start);
  segment(LatencyStage::kStage2Service, ts.stage2_done);
  segment(LatencyStage::kStage3Wait, ts.stage3_start);
  segment(LatencyStage::kStage3Service, ts.stage3_done);
  segment(LatencyStage::kFlowCache, ts.flowcache_done);
  const sim::Duration e2e = ts.socket_enqueue - ts.nic_rx;
  cell(LatencyStage::kEndToEnd, c).record(e2e);
  window_record(ts.socket_enqueue, c, e2e);
}

void LatencyLedger::record_irq_to_poll(sim::Duration d) {
  if (!enabled_) return;
  cell(LatencyStage::kIrqToPoll, 0).record(d);
}

void LatencyLedger::record_socket_wait(sim::Duration d, int level) {
  if (!enabled_) return;
  cell(LatencyStage::kSocketWait, clamp_level(level)).record(d);
}

void LatencyLedger::record_dropped(int level) {
  if (!enabled_) return;
  ++dropped_[static_cast<std::size_t>(clamp_level(level))];
}

void LatencyLedger::window_record(sim::Time at, int level,
                                  sim::Duration e2e) {
  const std::int64_t w = at / interval_;
  Window& win = ring_[static_cast<std::size_t>(w) % ring_.size()];
  if (win.index != w) {
    if (win.index > w) {
      // Out-of-order record for a window the ring already rotated past
      // (possible when polls on different CPUs compute completion
      // instants ahead of sim-now). Never silent: counted and exported.
      ++late_;
      return;
    }
    if (win.index >= 0 && win.count > 0) ++evicted_;
    win.index = w;
    win.count = 0;
    for (auto& h : win.per_level) {
      if (h) h->reset();
    }
  }
  auto& hist = win.per_level[static_cast<std::size_t>(level)];
  if (!hist) hist = std::make_unique<stats::Histogram>(kWindowSubBucketBits);
  hist->record(e2e);
  ++win.count;
}

const stats::Histogram& LatencyLedger::histogram(LatencyStage stage,
                                                 int level) const {
  return hists_[static_cast<std::size_t>(stage) *
                    static_cast<std::size_t>(kNumLatencyClasses) +
                static_cast<std::size_t>(clamp_level(level))];
}

stats::Histogram LatencyLedger::merged_windows(int level) const {
  stats::Histogram merged(kWindowSubBucketBits);
  for (const auto& w : ring_) {
    if (w.index < 0) continue;
    for (int c = 0; c < kNumLatencyClasses; ++c) {
      if (level >= 0 && c != level) continue;
      const auto& h = w.per_level[static_cast<std::size_t>(c)];
      if (h) merged.merge(*h);
    }
  }
  return merged;
}

LatencyBreakdown LatencyLedger::snapshot() const {
  LatencyBreakdown b;
  b.enabled = enabled_;
  b.window_interval_ns = interval_;
  b.windows_evicted = evicted_;
  b.window_late_drops = late_;
  b.unattributed = unattributed_;
  b.dropped_in_flight = dropped_in_flight();
  for (int s = 0; s < kNumLatencyStages; ++s) {
    for (int c = 0; c < kNumLatencyClasses; ++c) {
      const auto& h = histogram(static_cast<LatencyStage>(s), c);
      if (h.count() == 0) continue;
      StageRow row;
      row.stage = static_cast<LatencyStage>(s);
      row.level = c;
      row.count = h.count();
      row.min_ns = h.min();
      row.mean_ns = h.mean();
      row.p50_ns = h.percentile(0.50);
      row.p90_ns = h.percentile(0.90);
      row.p99_ns = h.percentile(0.99);
      row.max_ns = h.max();
      row.sum_ns = h.sum();
      b.stages.push_back(row);
    }
  }
  // Retained windows, oldest first.
  std::vector<const Window*> retained;
  for (const auto& w : ring_) {
    if (w.index >= 0) retained.push_back(&w);
  }
  std::sort(retained.begin(), retained.end(),
            [](const Window* a, const Window* b) {
              return a->index < b->index;
            });
  for (const Window* w : retained) {
    for (int c = 0; c < kNumLatencyClasses; ++c) {
      const auto& h = w->per_level[static_cast<std::size_t>(c)];
      if (!h || h->count() == 0) continue;
      WindowRow row;
      row.window = w->index;
      row.start_ns = w->index * interval_;
      row.level = c;
      row.count = h->count();
      row.p50_ns = h->percentile(0.50);
      row.p99_ns = h->percentile(0.99);
      b.windows.push_back(row);
    }
  }
  return b;
}

void LatencyLedger::reset() {
  for (auto& h : hists_) h.reset();
  for (auto& w : ring_) {
    w.index = -1;
    w.count = 0;
    for (auto& h : w.per_level) {
      if (h) h->reset();
    }
  }
  unattributed_ = 0;
  evicted_ = 0;
  late_ = 0;
  dropped_.fill(0);
}

void write_latency_json(JsonWriter& w, const LatencyLedger& ledger) {
  const LatencyBreakdown b = ledger.snapshot();
  w.begin_object();
  w.member("enabled", b.enabled);
  w.member("unattributed", b.unattributed);
  w.member("dropped_in_flight", b.dropped_in_flight);
  w.key("stages").begin_array();
  for (const auto& r : b.stages) {
    w.begin_object();
    w.member("stage", latency_stage_name(r.stage));
    w.member("class", static_cast<std::int64_t>(r.level));
    w.member("count", r.count);
    w.member("min_ns", r.min_ns);
    w.member("mean_ns", r.mean_ns);
    w.member("p50_ns", r.p50_ns);
    w.member("p90_ns", r.p90_ns);
    w.member("p99_ns", r.p99_ns);
    w.member("max_ns", r.max_ns);
    w.member("sum_ns", r.sum_ns);
    w.end_object();
  }
  w.end_array();
  w.key("windows").begin_object();
  w.member("interval_ns", b.window_interval_ns);
  w.member("capacity",
           static_cast<std::uint64_t>(ledger.window_capacity()));
  w.member("evicted", b.windows_evicted);
  w.member("late_drops", b.window_late_drops);
  w.key("series").begin_array();
  for (const auto& r : b.windows) {
    w.begin_object();
    w.member("window", r.window);
    w.member("start_ns", r.start_ns);
    w.member("class", static_cast<std::int64_t>(r.level));
    w.member("count", r.count);
    w.member("p50_ns", r.p50_ns);
    w.member("p99_ns", r.p99_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
}

std::string latency_json(const LatencyLedger& ledger) {
  JsonWriter w;
  write_latency_json(w, ledger);
  return w.take();
}

namespace {

std::string us_cell(double ns) { return stats::Table::cell(ns / 1e3); }
std::string us_cell(std::int64_t ns) {
  return stats::Table::cell(static_cast<double>(ns) / 1e3);
}

}  // namespace

std::string render_latency_breakdown(const LatencyBreakdown& b) {
  if (!b.enabled) return "latency ledger disabled\n";
  if (b.stages.empty()) return "latency ledger: no samples\n";
  stats::Table table({"stage", "class", "count", "mean(us)", "p50(us)",
                      "p90(us)", "p99(us)", "max(us)"});
  for (const auto& r : b.stages) {
    table.add_row({latency_stage_name(r.stage), std::to_string(r.level),
                   std::to_string(r.count), us_cell(r.mean_ns),
                   us_cell(r.p50_ns), us_cell(r.p90_ns), us_cell(r.p99_ns),
                   us_cell(r.max_ns)});
  }
  std::string out = table.render();
  if (b.unattributed > 0) {
    out += "unattributed deliveries: " + std::to_string(b.unattributed) +
           "\n";
  }
  return out;
}

std::string render_latency_windows(const LatencyBreakdown& b) {
  if (b.windows.empty()) return "latency windows: no samples\n";
  stats::Table table(
      {"t(ms)", "class", "count", "p50(us)", "p99(us)"});
  for (const auto& r : b.windows) {
    table.add_row({stats::Table::cell(
                       static_cast<double>(r.start_ns) / 1e6, 0),
                   std::to_string(r.level), std::to_string(r.count),
                   us_cell(r.p50_ns), us_cell(r.p99_ns)});
  }
  std::string out = table.render();
  if (b.windows_evicted > 0 || b.window_late_drops > 0) {
    out += "windows evicted: " + std::to_string(b.windows_evicted) +
           ", late drops: " + std::to_string(b.window_late_drops) + "\n";
  }
  return out;
}

}  // namespace prism::telemetry
