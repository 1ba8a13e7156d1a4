// Overload control: flow_limit admission, priority-aware shedding, and
// the per-host overload state machine with receiver-livelock detection.
//
// Sustained overload is where the paper's priority story is decided: once
// arrivals exceed service capacity the backlog pins at netdev_max_backlog
// and tail-drop is indiscriminate — a hot flow monopolizes the queue
// exactly as the HoL analysis (Fig. 2 vs Fig. 7) warns. Linux's answers
// are reproduced here and extended with Prism's priority bit:
//
//  * FlowLimiter — a faithful port of the kernel's skb_flow_limit():
//    per-CPU hashed flow counters over a sliding history of recent
//    backlog enqueues; once the queue is at least half full, packets of a
//    flow occupying more than half the history are shed. Divergence from
//    Linux: the history length is netdev_max_backlog (the kernel pins it
//    at 128) so dominance is judged over the same horizon the queue
//    spans.
//
//  * BacklogAdmission — the per-CPU admission policy consulted by
//    NapiStruct::enqueue before a packet joins a backlog queue. Level-0
//    (best-effort) packets pass the flow limiter and are refused outright
//    once the queue grows into the reserved high-priority headroom;
//    packets of level >= 1 are admitted up to the full queue limit. Every
//    refusal is attributed to the DropLedger (kFlowLimit / kOverloadShed).
//
//  * OverloadGovernor — a per-host hysteresis state machine
//    (normal -> overloaded -> livelocked) fed by backlog depth, the
//    time-squeeze streak, and poll-list residency. Declared overload
//    stretches NIC interrupt moderation (degradation at the source); a
//    watchdog declares livelock when polls keep completing with zero
//    stage-3 socket deliveries while input pressure (IRQs or backlog
//    arrivals) continues. Transitions are logged (bounded, deterministic)
//    and exported through the "prism/overload" proc file.
//
// OverloadConfig::enabled = false is the off switch: admission admits
// everything, the governor stays in kNormal and the softirq loop
// re-raises instead of deferring to ksoftirqd.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/napi.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "telemetry/metrics.h"

namespace prism::kernel {

/// Tunables of the overload-control layer. A value object like CostModel:
/// copy, tweak, build a Host with it.
struct OverloadConfig {
  /// Master runtime switch. Off: admission admits everything, the
  /// governor never leaves kNormal, and the engines keep the immediate
  /// softirq re-raise instead of the ksoftirqd deferral.
  bool enabled = true;

  /// Per-flow dominance shedding at the backlog (Linux flow_limit).
  bool flow_limit = true;
  /// Hash buckets of the flow limiter (Linux flow_limit_table_len).
  std::size_t flow_limit_buckets = 4096;

  /// Enter overload when any backlog's depth reaches this fraction of
  /// netdev_max_backlog; leave only after it falls below `low_watermark`
  /// (hysteresis).
  double high_watermark = 0.75;
  double low_watermark = 0.25;
  /// Fraction of the queue limit reserved for high-priority (level >= 1)
  /// packets: level-0 enqueues are shed once depth reaches
  /// (1 - high_headroom) * netdev_max_backlog.
  double high_headroom = 0.10;

  /// Consecutive squeezed softirqs (budget or time limit hit with work
  /// remaining) that declare overload.
  int squeeze_enter_streak = 8;
  /// Consecutive softirqs ending with a non-empty poll list that declare
  /// overload (devices never drain — service can't keep up).
  int residency_enter_streak = 16;

  /// Watchdog: polls completing without a single stage-3 socket delivery,
  /// while IRQs or backlog arrivals continue, before livelock is
  /// declared.
  int livelock_polls = 64;

  /// Declared overload multiplies the NIC's coalesce usecs by this factor
  /// (IRQ-moderation stretch); restored on exit.
  double moderation_stretch = 4.0;
  /// Stretch target when the base configuration has moderation disabled
  /// (usecs == 0).
  sim::Duration moderation_floor = sim::microseconds(20);

  /// Bound of the in-memory transition log (older entries are never
  /// evicted; excess transitions are counted, not stored).
  std::size_t max_transitions = 256;
};

/// Faithful port of the kernel's skb_flow_limit(): a bucket-hashed count
/// of which flows occupied the last `history_len` backlog enqueues. A
/// packet is shed when its queue is at least half full AND its flow holds
/// more than half the history — i.e. a single dominant flow cannot
/// monopolize a congested backlog. The tables are allocated at the first
/// decision past half the backlog (Linux likewise allocates
/// `sd->flow_limit` only when the limit is enabled), so a limiter that
/// stays dormant holds none.
class FlowLimiter {
 public:
  FlowLimiter(std::size_t num_buckets, std::size_t history_len)
      : num_buckets_(num_buckets == 0 ? 1 : num_buckets),
        history_len_(history_len == 0 ? 1 : history_len) {}

  /// Records the enqueue attempt and decides: true => shed this packet.
  /// `qlen` is the backlog depth before the enqueue; below half of
  /// `max_backlog` the limiter is dormant and records nothing, exactly
  /// like the kernel's early return.
  bool should_drop(std::uint64_t flow_hash, std::size_t qlen,
                   std::size_t max_backlog) {
    if (qlen < max_backlog / 2) return false;
    if (buckets_.empty()) {
      history_.assign(history_len_, kEmpty);
      buckets_.assign(num_buckets_, 0);
    }
    const auto new_flow =
        static_cast<std::uint32_t>(flow_hash % buckets_.size());
    const std::uint32_t old_flow = history_[head_];
    history_[head_] = new_flow;
    head_ = (head_ + 1) % history_.size();
    // Not-yet-written history slots hold an explicit sentinel (divergence:
    // the kernel zero-initializes, which aliases bucket 0 and suppresses
    // its counts for the first pass through the history).
    if (old_flow != kEmpty && buckets_[old_flow] > 0) --buckets_[old_flow];
    if (buckets_[new_flow]++ > history_.size() / 2) {
      ++count_;
      return true;
    }
    return false;
  }

  /// Packets shed (softnet_stat's flow_limit_count column).
  std::uint64_t count() const noexcept { return count_; }

  /// Bytes held by the history and the bucket table (0 while dormant).
  std::size_t table_bytes() const noexcept {
    return (history_.size() + buckets_.size()) * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  std::size_t num_buckets_;
  std::size_t history_len_;
  std::vector<std::uint32_t> history_;
  std::vector<std::uint32_t> buckets_;
  std::size_t head_ = 0;
  std::uint64_t count_ = 0;
};

class OverloadGovernor;

/// Per-CPU backlog admission: flow_limit plus priority-aware shedding
/// with reserved high-priority headroom. Consulted by NapiStruct::enqueue
/// for the backlog napis (not the NIC ring or bridge cells, matching
/// where the kernel applies flow_limit: enqueue_to_backlog).
class BacklogAdmission final : public AdmissionPolicy {
 public:
  BacklogAdmission(const OverloadConfig& cfg, std::size_t max_backlog)
      : cfg_(cfg),
        headroom_(static_cast<std::size_t>(
            cfg.high_headroom * static_cast<double>(max_backlog))),
        limiter_(cfg.flow_limit_buckets, max_backlog) {}

  /// Notifies the governor of every enqueue attempt (depth watermark
  /// input). nullptr detaches.
  void set_governor(OverloadGovernor* governor) noexcept {
    governor_ = governor;
  }

  Verdict admit(const Skb& skb, int level, std::size_t qlen,
                std::size_t limit) override;

  std::uint64_t flow_limit_count() const noexcept {
    return limiter_.count();
  }
  std::uint64_t shed_count() const noexcept { return sheds_; }

 private:
  const OverloadConfig cfg_;
  const std::size_t headroom_;
  FlowLimiter limiter_;
  OverloadGovernor* governor_ = nullptr;
  std::uint64_t sheds_ = 0;
};

/// Per-host overload state machine + receiver-livelock watchdog.
///
///                    depth >= high_wm, or squeeze/residency streak
///          +--------+ ------------------------------------> +------------+
///          | normal |                                       | overloaded |
///          +--------+ <------------------------------------ +------------+
///               ^       depth <= low_wm and streaks cleared    |       ^
///               |                                              |       |
///               |             livelock_polls polls with zero   |       |
///               |             deliveries under input pressure  v       |
///               |                                         +------------+
///               +---- (never directly) ------------------ | livelocked |
///                     delivery resumes -> overloaded      +------------+
class OverloadGovernor {
 public:
  enum class State { kNormal, kOverloaded, kLivelocked };

  struct Transition {
    sim::Time at = 0;
    State from = State::kNormal;
    State to = State::kNormal;
    const char* cause = "";
  };

  OverloadGovernor(sim::Simulator& sim, const OverloadConfig& cfg,
                   std::size_t max_backlog)
      : sim_(sim),
        cfg_(cfg),
        enter_depth_(static_cast<std::size_t>(
            cfg.high_watermark * static_cast<double>(max_backlog))),
        exit_depth_(static_cast<std::size_t>(
            cfg.low_watermark * static_cast<double>(max_backlog))) {}

  OverloadGovernor(const OverloadGovernor&) = delete;
  OverloadGovernor& operator=(const OverloadGovernor&) = delete;

  /// Probe returning the deepest backlog on the host (hysteresis exit
  /// checks re-sample it; the enter check uses the depth the enqueue
  /// observed).
  void set_depth_probe(std::function<std::size_t()> probe) {
    depth_probe_ = std::move(probe);
  }

  /// Invoked with `true` on entering overload and `false` on returning to
  /// normal — the host wires NIC IRQ-moderation stretch here.
  void set_moderation_hook(std::function<void(bool)> hook) {
    moderation_hook_ = std::move(hook);
  }

  /// Invoked on EVERY state change (after the log entry is recorded) —
  /// the host feeds the anomaly bank's governor-flap detector here.
  /// Purely observational: must not call back into the governor.
  using TransitionObserver = std::function<void(const Transition&)>;
  void set_transition_observer(TransitionObserver observer) {
    transition_observer_ = std::move(observer);
  }

  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix) {
    reg.add(prefix + "entries", entries_);
    reg.add(prefix + "exits", exits_);
    reg.add(prefix + "livelocks", livelocks_);
    reg.add(prefix + "state", state_);
  }

  // ------------------------------------------------ event notifications
  /// A backlog enqueue was attempted with `depth` packets already queued.
  void note_enqueue(std::size_t depth) {
    if (!cfg_.enabled) return;
    if (state() == State::kNormal) {
      if (depth >= enter_depth_) transition(State::kOverloaded, "depth");
      return;
    }
    ++arrivals_since_delivery_;
  }

  /// One net_rx_action invocation finished. `squeezed`: it hit the packet
  /// or time budget with work remaining; `residual`: poll-list length it
  /// left behind.
  void note_softirq_end(bool squeezed, std::size_t residual) {
    if (!cfg_.enabled) return;
    squeeze_streak_ = squeezed ? squeeze_streak_ + 1 : 0;
    residency_streak_ = residual > 0 ? residency_streak_ + 1 : 0;
    if (state() == State::kNormal) {
      if (squeeze_streak_ >= cfg_.squeeze_enter_streak) {
        transition(State::kOverloaded, "squeeze");
      } else if (residency_streak_ >= cfg_.residency_enter_streak) {
        transition(State::kOverloaded, "residency");
      }
      return;
    }
    maybe_exit();
  }

  /// One device poll completed.
  void note_poll() {
    if (!cfg_.enabled || state() == State::kNormal) return;
    ++polls_since_delivery_;
    if (state() == State::kOverloaded &&
        polls_since_delivery_ >= cfg_.livelock_polls &&
        irqs_since_delivery_ + arrivals_since_delivery_ > 0) {
      livelocks_.inc();
      transition(State::kLivelocked, "livelock");
    }
  }

  /// A packet reached a stage-3 socket.
  void note_delivery() {
    polls_since_delivery_ = 0;
    irqs_since_delivery_ = 0;
    arrivals_since_delivery_ = 0;
    if (!cfg_.enabled || state() == State::kNormal) return;
    if (state() == State::kLivelocked) {
      transition(State::kOverloaded, "delivery_resumed");
    }
    maybe_exit();
  }

  /// A NIC IRQ top-half fired.
  void note_irq() {
    if (!cfg_.enabled || state() == State::kNormal) return;
    ++irqs_since_delivery_;
  }

  // ------------------------------------------------------------ queries
  State state() const noexcept { return static_cast<State>(state_.value()); }
  std::uint64_t entries() const noexcept { return entries_.value(); }
  std::uint64_t exits() const noexcept { return exits_.value(); }
  /// Watchdog fires (overloaded -> livelocked transitions).
  std::uint64_t livelocks() const noexcept { return livelocks_.value(); }
  const std::vector<Transition>& transitions() const noexcept {
    return log_;
  }
  std::uint64_t transitions_dropped() const noexcept {
    return log_dropped_;
  }
  const OverloadConfig& config() const noexcept { return cfg_; }
  std::size_t enter_depth() const noexcept { return enter_depth_; }
  std::size_t exit_depth() const noexcept { return exit_depth_; }

 private:
  void maybe_exit() {
    if (state() != State::kOverloaded) return;
    if (squeeze_streak_ != 0 || residency_streak_ != 0) return;
    if (depth_probe_ && depth_probe_() > exit_depth_) return;
    transition(State::kNormal, "recovered");
  }

  void transition(State to, const char* cause);

  sim::Simulator& sim_;
  const OverloadConfig cfg_;
  const std::size_t enter_depth_;
  const std::size_t exit_depth_;
  std::function<std::size_t()> depth_probe_;
  std::function<void(bool)> moderation_hook_;
  TransitionObserver transition_observer_;
  /// The current State as a gauge level (its high-water mark is the
  /// worst state reached).
  telemetry::Gauge state_;
  int squeeze_streak_ = 0;
  int residency_streak_ = 0;
  int polls_since_delivery_ = 0;
  std::uint64_t irqs_since_delivery_ = 0;
  std::uint64_t arrivals_since_delivery_ = 0;
  telemetry::Counter entries_;
  telemetry::Counter exits_;
  telemetry::Counter livelocks_;
  std::vector<Transition> log_;
  std::uint64_t log_dropped_ = 0;
};

/// Stable lowercase state name ("normal", "overloaded", "livelocked").
const char* to_string(OverloadGovernor::State s) noexcept;

/// Renders the host's overload state for the "prism/overload" proc file:
/// current state, watermarks, transition log, watchdog counters, and the
/// per-CPU flow_limit / shed attribution. Byte-identical across same-seed
/// runs.
std::string overload_json(const OverloadGovernor& gov,
                          const std::vector<const BacklogAdmission*>& cpus);

}  // namespace prism::kernel
