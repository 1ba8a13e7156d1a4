// Latency attribution: where the microseconds go, per stage and per
// priority class.
//
// The paper's argument (§IV, Figs. 8-11) is that high-priority packets
// wait less *somewhere* in the NIC -> softirq -> bridge -> backlog ->
// socket pipeline. The skb already carries life-cycle timestamps
// (kernel/skb.h); this ledger turns them into per-(stage, class)
// stats::Histograms at the single point where a packet's journey is
// complete — socket delivery — so end-to-end percentiles decompose into
// ring wait, per-stage queue wait, and per-stage service time that sum
// back (exactly, in a discrete-event simulator) to the end-to-end number.
//
// The ledger also keeps a windowed time-series: a ring of per-interval
// end-to-end histograms (interval configurable), merged on demand, so
// load sweeps report p50/p99-vs-time instead of a single end-of-run
// number. set_enabled(false) detaches the ledger at run time for A/B
// overhead measurements (perfbench's telemetry.cost_frac).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/skb.h"
#include "sim/time.h"
#include "stats/histogram.h"

namespace prism::telemetry {

class JsonWriter;

/// Pipeline segments the ledger attributes time to. The stages before
/// kEndToEnd are the consecutive segments of [nic_rx, socket_enqueue] —
/// they telescope, so their per-packet durations sum exactly to kEndToEnd
/// (a packet traverses either stages 2-3 or the flow-cache fast path,
/// never both). kIrqToPoll (per poll, not per packet) and kSocketWait
/// (socket buffer -> recv syscall, after socket_enqueue) are recorded
/// separately and excluded from the sum.
enum class LatencyStage : int {
  kRingWait = 0,    ///< DMA arrival -> driver poll picks the frame up
  kStage1Service,   ///< NIC driver processing (alloc, classify, GRO)
  kStage2Wait,      ///< stage-1 done -> bridge gro_cell poll starts
  kStage2Service,   ///< bridge processing (FDB lookup, forward)
  kStage3Wait,      ///< stage-2 done -> backlog poll starts (incl. RPS IPI)
  kStage3Service,   ///< backlog/veth processing + protocol delivery
  kFlowCache,       ///< flow-cache fast path: cached transform + delivery
  kEndToEnd,        ///< nic_rx -> socket_enqueue
  kIrqToPoll,       ///< IRQ fire -> first driver poll (per poll)
  kSocketWait,      ///< socket_enqueue -> application recv
  kCount
};

constexpr int kNumLatencyStages = static_cast<int>(LatencyStage::kCount);
/// Mirrors kernel::kNumPriorityLevels (static_assert at the wiring site).
constexpr int kNumLatencyClasses = 4;

/// Stable lowercase identifier ("ring_wait", "stage2_service", ...), used
/// in JSON exports and table rendering.
const char* latency_stage_name(LatencyStage stage);

/// One non-empty (stage, class) cell of a ledger snapshot.
struct StageRow {
  LatencyStage stage = LatencyStage::kEndToEnd;
  int level = 0;  ///< priority class (0 = best-effort)
  std::uint64_t count = 0;
  std::int64_t min_ns = 0;
  double mean_ns = 0.0;
  std::int64_t p50_ns = 0;
  std::int64_t p90_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t max_ns = 0;
  double sum_ns = 0.0;  ///< exact; the reconciliation tests sum these
};

/// One non-empty (window, class) cell of the time-series ring.
struct WindowRow {
  std::int64_t window = 0;    ///< absolute index (start_ns / interval)
  sim::Time start_ns = 0;     ///< window start instant
  int level = 0;
  std::uint64_t count = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
};

/// Materialized read-only view of a ledger, safe to keep after the host
/// is gone. Scenario results carry one; benches render it.
struct LatencyBreakdown {
  bool enabled = true;
  std::vector<StageRow> stages;    ///< non-empty cells, stage-major order
  std::vector<WindowRow> windows;  ///< retained windows, oldest first
  sim::Duration window_interval_ns = 0;
  std::uint64_t windows_evicted = 0;  ///< windows rotated out of the ring
  std::uint64_t window_late_drops = 0;
  std::uint64_t unattributed = 0;  ///< deliveries without full timestamps
  /// Packets dropped mid-pipeline: their partial stamps are discarded
  /// (never recorded as stage durations) and the loss is counted here.
  std::uint64_t dropped_in_flight = 0;
};

/// Per-host ledger of stage-resident durations.
class LatencyLedger {
 public:
  static constexpr sim::Duration kDefaultWindowInterval =
      sim::milliseconds(10);
  static constexpr std::size_t kDefaultWindowCapacity = 64;
  /// Window histograms trade resolution (2^4 sub-buckets, <6.3% relative
  /// error) for memory: the ring holds capacity x classes of them.
  static constexpr int kWindowSubBucketBits = 4;

  explicit LatencyLedger(
      sim::Duration window_interval = kDefaultWindowInterval,
      std::size_t window_capacity = kDefaultWindowCapacity);

  LatencyLedger(const LatencyLedger&) = delete;
  LatencyLedger& operator=(const LatencyLedger&) = delete;

  /// Runtime switch (default on). Off, every record_* is a no-op — the
  /// baseline arm of perfbench's telemetry.cost_frac A/B.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  /// Reconfigures the time-series interval (resets retained windows).
  void set_window_interval(sim::Duration interval);
  sim::Duration window_interval() const noexcept { return interval_; }
  std::size_t window_capacity() const noexcept { return ring_.size(); }

  /// Records one delivered packet from its skb timestamps: each traversed
  /// consecutive segment, the end-to-end duration, and the time-series
  /// window at the delivery instant. Deliveries without nic_rx /
  /// socket_enqueue stamps (synthetically injected skbs) are counted in
  /// unattributed() instead.
  void record_delivery(const kernel::SkbTimestamps& ts, int level);

  /// Records one IRQ -> first-poll duration (class 0: the hardware ring
  /// is priority-blind, paper §IV-D).
  void record_irq_to_poll(sim::Duration d);

  /// Records one socket-buffer residence time (enqueue -> recv).
  void record_socket_wait(sim::Duration d, int level);

  /// Records a packet dropped mid-pipeline (ring/backlog/rcvbuf overflow,
  /// validation failure, alloc failure). The skb's partial timestamps die
  /// with it — counting the loss here keeps "every packet is either fully
  /// attributed or counted dropped" true instead of leaking stamps into
  /// stage histograms that would never reconcile.
  void record_dropped(int level);

  /// Aggregate histogram of one (stage, class) cell.
  const stats::Histogram& histogram(LatencyStage stage, int level) const;

  /// Merges the retained time-series windows for `level` into one
  /// histogram (the "merged on demand" read path; same resolution as the
  /// window histograms). level < 0 merges every class.
  stats::Histogram merged_windows(int level = -1) const;

  std::uint64_t unattributed() const noexcept { return unattributed_; }
  std::uint64_t windows_evicted() const noexcept { return evicted_; }
  std::uint64_t window_late_drops() const noexcept { return late_; }
  /// Total mid-pipeline drops; per-class via the `level` overload.
  std::uint64_t dropped_in_flight() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : dropped_) sum += v;
    return sum;
  }
  std::uint64_t dropped_in_flight(int level) const noexcept {
    return dropped_[static_cast<std::size_t>(clamp_level(level))];
  }

  /// Buckets held by the stage cells and the window ring together (8
  /// bytes each): the ledger's histogram footprint.
  std::size_t buckets_held() const noexcept;

  /// Materializes every non-empty cell (and the retained windows).
  LatencyBreakdown snapshot() const;

  /// Drops all recorded data (configuration is kept).
  void reset();

 private:
  struct Window {
    std::int64_t index = -1;  ///< absolute window index, -1 = unused
    std::uint64_t count = 0;
    /// A class that never records here holds no buckets.
    std::array<stats::Histogram, kNumLatencyClasses> per_level{
        stats::Histogram(kWindowSubBucketBits),
        stats::Histogram(kWindowSubBucketBits),
        stats::Histogram(kWindowSubBucketBits),
        stats::Histogram(kWindowSubBucketBits)};
    static_assert(kNumLatencyClasses == 4, "one initializer per class");
  };

  static int clamp_level(int level) noexcept {
    if (level < 0) return 0;
    if (level >= kNumLatencyClasses) return kNumLatencyClasses - 1;
    return level;
  }

  stats::Histogram& cell(LatencyStage stage, int level) noexcept {
    return hists_[static_cast<std::size_t>(stage) *
                      static_cast<std::size_t>(kNumLatencyClasses) +
                  static_cast<std::size_t>(level)];
  }

  void window_record(sim::Time at, int level, sim::Duration e2e);

  bool enabled_ = true;
  sim::Duration interval_;
  std::vector<stats::Histogram> hists_;  ///< stage-major, kCount x classes
  std::vector<Window> ring_;
  std::uint64_t unattributed_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t late_ = 0;
  std::array<std::uint64_t, kNumLatencyClasses> dropped_{};
};

/// Streams the ledger as JSON (the "prism/latency" proc file):
/// {"enabled":..., "unattributed":..., "stages":[...], "windows":{...}}.
void write_latency_json(JsonWriter& w, const LatencyLedger& ledger);
std::string latency_json(const LatencyLedger& ledger);

/// Plain-text table of the per-stage breakdown (one row per non-empty
/// (stage, class) cell), shared by benches and examples.
std::string render_latency_breakdown(const LatencyBreakdown& b);

/// Plain-text p50/p99-vs-time table from the retained windows.
std::string render_latency_windows(const LatencyBreakdown& b);

}  // namespace prism::telemetry
