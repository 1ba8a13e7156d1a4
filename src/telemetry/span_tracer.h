// Simulated-time span tracer with Chrome trace_event export.
//
// The paper made its core argument visible with an eBPF trace of the NAPI
// poll order (Fig. 6). This tracer generalizes that: components record
// sim-time spans (poll iterations, softirq entries, IRQ instants) into a
// preallocated ring — interned name ids and plain stores on the hot path,
// no allocation in steady state — and the whole timeline exports as Chrome
// trace_event JSON, loadable in Perfetto / chrome://tracing. Tracks map to
// CPUs (one row per core, labelled via set_track_label), so vanilla
// interleaving vs PRISM streamlining is visible as alternating span colors
// on one row.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace prism::telemetry {

class SpanTracer {
 public:
  using NameId = std::uint16_t;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// `capacity` bounds the ring; the oldest spans are overwritten (and
  /// counted in dropped()) once it is full.
  explicit SpanTracer(std::size_t capacity = kDefaultCapacity);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Resolves a span name to a small id, registering it on first use.
  /// Call once per name at attach time and keep the id; the hot path then
  /// records integers only.
  NameId intern(std::string_view name);

  const std::string& name(NameId id) const {
    return names_[static_cast<std::size_t>(id)];
  }

  /// Labels a track row in the exported trace (thread_name metadata),
  /// e.g. track 0 -> "server.cpu0".
  void set_track_label(int track, std::string label) {
    track_labels_[track] = std::move(label);
  }

  /// One recorded event. duration == 0 with instant == true renders as a
  /// Chrome instant event, otherwise as a complete ("X") span.
  struct Span {
    sim::Time begin = 0;
    sim::Duration duration = 0;
    NameId name = 0;
    std::int16_t track = 0;
    std::uint32_t arg = 0;   ///< e.g. packets processed by the poll
    std::uint32_t arg2 = 0;  ///< e.g. in-stage service time, ns
    bool instant = false;
  };

  /// Records a complete span [begin, begin + duration) on `track`.
  /// `arg`/`arg2` export as "packets"/"stage_ns" span args.
  void span(int track, NameId name, sim::Time begin, sim::Duration duration,
            std::uint32_t arg = 0, std::uint32_t arg2 = 0) {
    push(Span{begin, duration, name, static_cast<std::int16_t>(track), arg,
              arg2, false});
  }

  /// Records a zero-duration marker (IRQ fire, preemption).
  void instant(int track, NameId name, sim::Time at) {
    push(Span{at, 0, name, static_cast<std::int16_t>(track), 0, 0, true});
  }

  std::size_t size() const noexcept { return ring_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Spans overwritten because the ring was full.
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// i-th retained span, oldest first.
  const Span& at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  void clear() noexcept {
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
  }

  /// Renders the retained spans as a Chrome trace_event JSON document
  /// ({"traceEvents": [...]}). Timestamps are exported in microseconds,
  /// tracks as tids under one pid named `process_name`.
  std::string export_chrome_trace(
      std::string_view process_name = "prism") const;

  /// Writes export_chrome_trace() to `path`; false on I/O error.
  bool export_chrome_trace_file(
      const std::string& path,
      std::string_view process_name = "prism") const;

 private:
  void push(const Span& s) {
    ++recorded_;
    if (ring_.size() < capacity_) {
      ring_.push_back(s);
      return;
    }
    ring_[head_] = s;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }

  std::size_t capacity_;
  std::vector<Span> ring_;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId> name_index_;
  std::map<int, std::string> track_labels_;
};

}  // namespace prism::telemetry
