// Simulated-time span tracer with Chrome trace_event export.
//
// The paper made its core argument visible with an eBPF trace of the NAPI
// poll order (Fig. 6): at each poll, the device polled and the poll list
// after it. This tracer is that trace and its generalization: components
// record sim-time spans (device polls with their poll list, softirq
// entries, IRQ instants) into a preallocated ring — interned name ids and
// plain stores on the hot path, no allocation in steady state — and the
// whole timeline exports as Chrome trace_event JSON, loadable in
// Perfetto / chrome://tracing. Tracks map to CPUs (one row per core,
// labelled via set_track_label), so vanilla interleaving vs PRISM
// streamlining is visible as alternating span colors on one row; polls()
// reads one row back as the rows of the paper's Fig. 6 table.
#pragma once

#include <array>
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

  /// Poll-list entries a poll span keeps; longer lists are truncated
  /// (counted in truncated_lists()). Real poll lists hold one entry per
  /// pipeline device on the CPU, far below this bound.
  static constexpr std::size_t kMaxPollList = 12;

  /// `capacity` bounds the ring; the oldest spans are overwritten (and
  /// counted in dropped()) once it is full.
  explicit SpanTracer(std::size_t capacity = kDefaultCapacity);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Resolves a span name to a small id, registering it on first use.
  /// Call once per name at attach time and keep the id; the hot path then
  /// records integers only. Non-empty `arg_name`/`arg2_name` name the two
  /// args of the spans recorded under this name in the export (e.g.
  /// "level", "head_level"), and a named arg exports even when it is 0;
  /// an unnamed one exports as "arg"/"arg2", and only when it is not 0.
  NameId intern(std::string_view name, std::string_view arg_name = {},
                std::string_view arg2_name = {});

  const std::string& name(NameId id) const {
    return names_[static_cast<std::size_t>(id)].name;
  }

  /// Labels a track row in the exported trace (thread_name metadata),
  /// e.g. track 0 -> "server.cpu0".
  void set_track_label(int track, std::string label) {
    track_labels_[track] = std::move(label);
  }

  /// kSpan renders as a complete ("X") Chrome span, kInstant as a
  /// zero-duration instant event, kPoll as a complete span that also
  /// carries the poll list after the poll (a "poll_list" arg).
  enum class Kind : std::uint8_t { kSpan, kInstant, kPoll };

  /// A poll span's poll list: the local list, then the global list, as
  /// interned ids, cut off at kMaxPollList entries.
  struct PollList {
    std::array<NameId, kMaxPollList> ids{};
    std::uint8_t size = 0;
    bool truncated = false;  ///< entries past kMaxPollList were cut off

    void push(NameId id) noexcept {
      if (size < kMaxPollList) {
        ids[size++] = id;
      } else {
        truncated = true;
      }
    }
  };

  /// One recorded event.
  struct Span {
    sim::Time begin = 0;
    sim::Duration duration = 0;
    std::int64_t arg = 0;   ///< e.g. packets processed by the poll
    std::int64_t arg2 = 0;  ///< e.g. the class a packet queued behind
    NameId name = 0;
    std::int16_t track = 0;
    Kind kind = Kind::kSpan;
    PollList poll_list;  ///< kPoll only
  };
  static_assert(sizeof(Span) == 64, "a span fills one cache line");

  /// Records a complete span [begin, begin + duration) on `track`.
  /// `arg`/`arg2` export under the arg names `name` was interned with.
  void span(int track, NameId name, sim::Time begin, sim::Duration duration,
            std::int64_t arg = 0, std::int64_t arg2 = 0) {
    push(Span{begin, duration, arg, arg2, name,
              static_cast<std::int16_t>(track), Kind::kSpan, {}});
  }

  /// Records a zero-duration marker (IRQ fire, preemption).
  void instant(int track, NameId name, sim::Time at) {
    push(Span{at, 0, 0, 0, name, static_cast<std::int16_t>(track),
              Kind::kInstant, {}});
  }

  /// Records one device poll: a span like span() whose one arg counts
  /// the packets polled, and which also carries the poll list after the
  /// poll's requeue.
  void poll(int track, NameId device, sim::Time begin,
            sim::Duration duration, std::int64_t packets,
            const PollList& list) {
    if (list.truncated) ++truncated_;
    push(Span{begin, duration, packets, 0, device,
              static_cast<std::int16_t>(track), Kind::kPoll, list});
  }

  std::size_t size() const noexcept { return ring_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Spans overwritten because the ring was full.
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Poll lists cut off at kMaxPollList entries.
  std::uint64_t truncated_lists() const noexcept { return truncated_; }

  /// i-th retained span, oldest first.
  const Span& at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  void clear() noexcept {
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
    truncated_ = 0;
  }

  /// One retained poll span resolved to names: a row of the paper's
  /// Fig. 6 table.
  struct PollRow {
    std::uint64_t iteration = 0;  ///< 1 for the first row read
    sim::Time at = 0;             ///< the poll's start
    std::string device;           ///< device polled
    std::vector<std::string> poll_list;  ///< list after the requeue
    std::uint64_t packets = 0;    ///< the span's arg: packets polled
  };

  /// The retained poll spans on `track` that begin at or after `from`,
  /// oldest first, numbered from 1.
  std::vector<PollRow> polls(int track, sim::Time from = 0) const;

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
  struct Name {
    std::string name;
    std::string arg = "arg";
    std::string arg2 = "arg2";
    bool arg_named = false;  ///< named args export even when 0
    bool arg2_named = false;
  };

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
  std::uint64_t truncated_ = 0;
  std::vector<Name> names_;
  std::unordered_map<std::string, NameId> name_index_;
  std::map<int, std::string> track_labels_;
};

/// Renders poll rows as the paper's Fig. 6 table ("Iter.  Device  Poll
/// list"), at most `max_rows` of them.
std::string render_poll_table(const std::vector<SpanTracer::PollRow>& rows,
                              std::size_t max_rows = 32);

}  // namespace prism::telemetry
