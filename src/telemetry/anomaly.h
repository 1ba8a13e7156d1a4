// Streaming anomaly detectors over the flight-recorder stamp points.
//
// Each detector evaluates one invariant as packets flow, without post-
// processing: priority inversion (a high-priority packet waited >= T at
// a stage behind lower-priority occupancy), per-class SLO breach (a
// window's p99 end-to-end latency exceeded the target), drop bursts
// (>= N drops inside a window) and overload-governor flapping (>= N
// state transitions inside a window). A firing detector freezes the
// newest flight-recorder events into the finding, giving packet-level
// evidence for exactly the moment the invariant broke — no verbose
// tracing needed up front.
//
// Layering: this is pure telemetry. It never includes kernel headers;
// governor transitions arrive as plain ints via on_governor_transition.
// Detectors observe and count — they never alter the simulation, so an
// armed run is schedule-identical to a disarmed one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/flow.h"
#include "sim/time.h"
#include "telemetry/flight_recorder.h"

namespace prism::telemetry {

class JsonWriter;

enum class AnomalyKind : std::uint8_t {
  kQueueInversion,  ///< waited >= T at a stage queue behind a lower class
  kRingInversion,   ///< high class waited >= T in the priority-blind ring
  kSloBreach,       ///< a class's windowed p99 exceeded the SLO target
  kDropBurst,       ///< >= N drops within one window
  kGovernorFlap,    ///< >= N governor transitions within one window
  kConvergenceTimeout,  ///< a class's p99 never recovered after a disruption
  kCount,
};

const char* anomaly_kind_name(AnomalyKind kind) noexcept;

/// Priority classes the SLO detector windows over — must mirror
/// kernel::kNumPriorityLevels (static_asserted where both are visible).
constexpr int kNumAnomalyClasses = 4;

/// Detector thresholds. A threshold of 0 disarms that detector; the
/// default bank detects only inversions, so it is deterministic and
/// cheap enough to stay armed everywhere.
struct AnomalyConfig {
  bool detect_inversion = true;
  /// Inversion fires when a class >= 1 packet waits at least this long
  /// at one stamp point (queue: behind a lower class; ring: any wait).
  sim::Duration inversion_wait_ns = sim::microseconds(100);
  /// SLO breach fires when a window's p99 for a class >= 1 exceeds this
  /// (0 = detector off).
  sim::Duration slo_p99_ns = 0;
  sim::Duration slo_window_ns = sim::milliseconds(1);
  /// Drop burst fires once per window when drops reach this count
  /// (0 = detector off).
  std::uint32_t drop_burst_threshold = 0;
  sim::Duration drop_burst_window_ns = sim::milliseconds(1);
  /// Governor flap fires once per window at this many transitions
  /// (0 = detector off).
  std::uint32_t flap_threshold = 0;
  sim::Duration flap_window_ns = sim::milliseconds(10);
  /// Convergence timeout fires when a class's windowed p99 has not
  /// returned to <= slo_p99_ns within this long of a note_disruption()
  /// call (0 = detector off; requires slo_p99_ns > 0 as the target).
  sim::Duration convergence_deadline_ns = 0;
  /// Findings retained with full detail; further firings only count.
  std::size_t max_findings = 32;
  /// Flight-recorder events frozen into each finding.
  std::size_t freeze_events = 32;
};

/// One detector firing, with the frozen recorder slice as evidence.
struct AnomalyFinding {
  AnomalyKind kind = AnomalyKind::kQueueInversion;
  sim::Time at = 0;
  int stage = 0;
  int level = 0;
  int head_level = -1;
  net::FiveTuple flow;
  sim::Duration wait_ns = 0;
  double value = 0;      ///< detector-specific measurement (p99, count...)
  double threshold = 0;  ///< the configured limit it crossed
  std::vector<FlightEvent> frozen;
};

/// Windowed log-bucket latency histogram (16 sub-buckets per octave):
/// enough resolution for a p99-vs-SLO comparison at ~6% error, 4 KiB.
class WindowHist {
 public:
  static constexpr int kSubBits = 4;
  void record(std::uint64_t v) noexcept;
  std::uint64_t total() const noexcept { return total_; }
  /// Upper bound of the bucket holding quantile `q` (0 when empty).
  std::uint64_t quantile(double q) const noexcept;
  void clear() noexcept;

 private:
  std::array<std::uint32_t, 60 * (1 << kSubBits)> counts_{};
  std::uint64_t total_ = 0;
};

/// The per-host detector bank. Fed by the host's packet probe (traced
/// stage waits, every delivery — not just traced flows — and every drop)
/// and the OverloadGovernor transition observer.
class AnomalyBank {
 public:
  AnomalyBank() = default;

  void arm(const AnomalyConfig& config);
  const AnomalyConfig& config() const noexcept { return config_; }
  void set_armed(bool armed) noexcept { armed_ = armed; }
  bool armed() const noexcept { return armed_; }

  /// Evidence source for frozen slices (optional).
  void set_recorder(const FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  // -------------------------------------------------------------- detectors
  /// One traced stage wait (from the packet probe). stage 1 with head
  /// -1 is the NIC ring (FIFO); stages 2..3 carry the head class the
  /// packet queued behind.
  void on_stage_wait(const net::FiveTuple& flow, int stage, int level,
                     sim::Duration wait_ns, int head_level, sim::Time at);
  /// Every delivered packet (all flows, so the SLO detector sees the
  /// full population, not the sampled one).
  void on_delivery(int level, sim::Duration e2e_ns, sim::Time at);
  /// Every recorded drop.
  void on_drop(int reason, int level, sim::Time at);
  /// From the churn harness: a disruption (container stop / migration)
  /// touched class `level` at time `at`. Arms a convergence watch for
  /// that class: the first fully post-disruption SLO window whose p99 is
  /// back at or under slo_p99_ns records a recovery; if no window
  /// recovers within convergence_deadline_ns, kConvergenceTimeout fires
  /// once. Re-arming an already-armed class restarts its clock (the
  /// flow was disrupted again before it converged). The class's current
  /// SLO window restarts at `at` so pre-disruption samples never count
  /// toward the recovery judgement.
  void note_disruption(int level, sim::Time at);
  /// From the overload governor (state codes as ints, cause as text).
  void on_governor_transition(sim::Time at, int from_state, int to_state,
                              const char* cause);

  // ------------------------------------------------------------- inspection
  std::uint64_t fired(AnomalyKind kind) const noexcept {
    return fired_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t fired_total() const noexcept;
  const std::vector<AnomalyFinding>& findings() const noexcept {
    return findings_;
  }
  std::uint64_t findings_dropped() const noexcept { return findings_dropped_; }
  sim::Duration max_inversion_wait_ns() const noexcept {
    return max_inversion_wait_;
  }
  const net::FiveTuple& worst_inversion_flow() const noexcept {
    return worst_inversion_flow_;
  }

  /// One convergence-watch success: the class's p99 was back under the
  /// SLO target by `recovered_at` (the close of the first compliant
  /// post-disruption window).
  struct ConvergenceRecovery {
    int level = 0;
    sim::Time disrupted_at = 0;
    sim::Time recovered_at = 0;
  };
  const std::vector<ConvergenceRecovery>& recoveries() const noexcept {
    return recoveries_;
  }
  /// True while a note_disruption() watch for `level` is still pending
  /// (neither recovered nor timed out).
  bool convergence_watch_armed(int level) const noexcept;

  void reset();

 private:
  void fire(AnomalyFinding finding);

  AnomalyConfig config_;
  bool armed_ = true;
  const FlightRecorder* recorder_ = nullptr;

  std::array<std::uint64_t, static_cast<std::size_t>(AnomalyKind::kCount)>
      fired_{};
  std::vector<AnomalyFinding> findings_;
  std::uint64_t findings_dropped_ = 0;
  sim::Duration max_inversion_wait_ = 0;
  net::FiveTuple worst_inversion_flow_;

  struct SloWindow {
    WindowHist hist;
    sim::Time start = -1;
  };
  std::array<SloWindow, kNumAnomalyClasses> slo_;  ///< one window per class

  struct BurstWindow {
    sim::Time start = -1;
    std::uint32_t count = 0;
    bool fired_this_window = false;
  };
  BurstWindow drops_;
  BurstWindow flaps_;

  struct ConvergenceWatch {
    bool armed = false;
    sim::Time disrupted_at = 0;
  };
  std::array<ConvergenceWatch, kNumAnomalyClasses> convergence_{};
  std::vector<ConvergenceRecovery> recoveries_;
};

/// Renders the "prism/anomalies" proc document: config, per-kind fired
/// counters, worst-inversion stats, recorder stats, findings with their
/// frozen evidence slices.
void anomalies_json(JsonWriter& w, const AnomalyBank& bank,
                    const FlightRecorder* recorder);
std::string anomalies_json(const AnomalyBank& bank,
                           const FlightRecorder* recorder);

/// Renders every finding's frozen slice as a Chrome trace (one track per
/// pipeline stage; dequeue/deliver events become spans covering their
/// wait, the rest instants; findings themselves are instants on track 0)
/// and writes it to `path`. Returns false when the file can't be opened.
bool export_anomaly_trace_file(const AnomalyBank& bank,
                               const std::string& path);

}  // namespace prism::telemetry
