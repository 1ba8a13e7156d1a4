// NAPI structures: napi_struct, packet-processing stages, and the generic
// queue-backed poll function.
//
// The simulated reception pipeline is built from PacketStages (the
// per-packet protocol work of one device) wrapped in NapiStructs (the
// pollable queue + poll function the kernel's softirq loop operates on),
// mirroring the kernel's napi_struct / poll-callback split.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "fault/fault.h"
#include "kernel/cost_model.h"
#include "kernel/probe.h"
#include "kernel/skb.h"
#include "sim/ring.h"
#include "sim/time.h"
#include "telemetry/metrics.h"

// Always 1 (overload control is always compiled in; OverloadConfig::enabled
// switches it); perfbench's build banner prints it.
#define PRISM_OVERLOAD_ENABLED 1

namespace prism::kernel {

/// Number of packet priority levels. Level 0 is best-effort (vanilla's
/// only level); levels 1..kNumPriorityLevels-1 are increasingly urgent.
/// The paper's prototype has two levels and names finer-grained control
/// as future work (§VII-3).
constexpr int kNumPriorityLevels = 4;

/// Packet-processing regime of a host (paper §III).
enum class NapiMode {
  kVanilla,     ///< stock two-list NAPI, FCFS, no priorities (Fig. 2)
  kPrismBatch,  ///< single list, dual queues, batch-level preemption
  kPrismSync,   ///< as batch, plus run-to-completion for high-priority
  /// Ablation mode: PRISM's dual per-device queues (high polled first)
  /// WITHOUT poll-list head insertion. Isolates how much of PRISM-batch's
  /// gain comes from each of its two ingredients (paper §III-B2).
  kPrismQueues,
};

/// Human-readable mode name ("vanilla", "prism-batch", "prism-sync").
const char* to_string(NapiMode mode) noexcept;

/// The per-packet protocol work of one pipeline stage (NIC driver, bridge,
/// backlog). Implementations perform the packet's side effects — stage
/// transition into the next device or final socket delivery — and return
/// the processing cost.
class PacketStage {
 public:
  virtual ~PacketStage() = default;

  /// Processes one skb at simulated instant `at` (the instant within the
  /// enclosing poll chunk at which this packet's processing begins).
  /// `cost_multiplier` is the cache-pressure factor of the enclosing poll
  /// (CostModel::depth_multiplier); implementations scale their own
  /// per-packet cost by it. Returns the simulated cost of this packet at
  /// this stage, including any inline work a PRISM-sync transition chains
  /// onto it.
  virtual sim::Duration process_one(SkbPtr skb, sim::Time at,
                                    double cost_multiplier) = 0;

  virtual const std::string& name() const = 0;
};

/// Admission decision for one backlog enqueue (kernel/overload.h
/// implements this; the interface lives here so NapiStruct can consult it
/// without an include cycle).
class AdmissionPolicy {
 public:
  enum class Verdict {
    kAdmit,      ///< enqueue normally
    kFlowLimit,  ///< shed: dominant flow on a congested queue (flow_limit)
    kShed,       ///< shed: low-priority packet inside the reserved headroom
  };

  virtual ~AdmissionPolicy() = default;

  /// Decides the fate of `skb` arriving at priority `level` on a queue
  /// currently `qlen` deep (all levels) with per-queue limit `limit`.
  virtual Verdict admit(const Skb& skb, int level, std::size_t qlen,
                        std::size_t limit) = 0;
};

/// Result of one napi_poll invocation.
struct PollOutcome {
  int processed = 0;        ///< packets consumed from the device queue
  sim::Duration cost = 0;   ///< total simulated cost of the poll
  bool has_more = false;    ///< device still has pending packets
};

/// Simulated napi_struct: the unit the NAPI poll list holds.
///
/// Owns the device's input packet queues. PRISM extends every device with
/// a second, high-priority queue (paper §IV-B); in vanilla mode the high
/// queue is simply never used.
class NapiStruct {
 public:
  explicit NapiStruct(std::string name) : name_(std::move(name)) {}
  virtual ~NapiStruct() = default;

  NapiStruct(const NapiStruct&) = delete;
  NapiStruct& operator=(const NapiStruct&) = delete;

  /// Processes up to `batch` packets starting at instant `start`.
  virtual PollOutcome poll(int batch, sim::Time start) = 0;

  /// Any packets pending? (NIC-backed napis probe their ring instead.)
  virtual bool has_pending() const { return highest_pending() >= 0; }

  /// Any high-priority (level >= 1) packets pending?
  virtual bool has_high_pending() const { return highest_pending() >= 1; }

  /// napi_complete: the device was drained and leaves the poll list.
  /// NIC-backed napis re-enable their interrupt here.
  virtual void on_complete() {}

  const std::string& name() const noexcept { return name_; }

  /// Enqueues at priority `level` (clamped to the valid range),
  /// enforcing the per-queue length limit (netdev_max_backlog): returns
  /// false and counts a drop when that queue is full, as netif_rx does.
  bool enqueue(SkbPtr skb, int level) {
    level = clamp_level(level);
    if (admission_ != nullptr) {
      const auto verdict =
          admission_->admit(*skb, level, pending_total(), queue_limit);
      if (verdict != AdmissionPolicy::Verdict::kAdmit) {
        (level > 0 ? high_dropped_ : low_dropped_).inc();
        const auto reason = verdict == AdmissionPolicy::Verdict::kFlowLimit
                                ? fault::DropReason::kFlowLimit
                                : fault::DropReason::kOverloadShed;
        probe_->drop(reason, level, *skb, probe_stage_,
                     last_done_stamp(*skb));
        return false;
      }
    }
    auto& q = queues[static_cast<std::size_t>(level)];
    bool full = q.size() >= queue_limit;
    if (!full && faults_ != nullptr && faults_->plan.force_backlog_full()) {
      full = true;
    }
    if (full) {
      (level > 0 ? high_dropped_ : low_dropped_).inc();
      probe_->drop(fault::DropReason::kBacklogFull, level, *skb,
                   probe_stage_, last_done_stamp(*skb));
      // Returning false destroys the caller's skb, recycling it (and its
      // buffer storage) through the pools.
      return false;
    }
    if (skb->traced) {
      probe_->stage_enqueue(*skb, probe_stage_,
                            static_cast<int>(pending_total()) + 1,
                            head_class());
    }
    q.push_back(std::move(skb));
    enqueued_.inc();
    depth_.set(static_cast<std::int64_t>(q.size()));
    return true;
  }

  /// Attaches the host's packet probe (kernel/probe.h); `stage` labels
  /// this device's position in the pipeline (2 = bridge gro_cell, 3 =
  /// backlog/veth). Probing never alters the schedule.
  void set_probe(const PacketProbe* probe, int stage) noexcept {
    probe_ = probe;
    probe_stage_ = stage;
  }

  /// Attaches the host's fault layer: the plan may force backlog-full
  /// episodes. nullptr detaches.
  void set_faults(fault::FaultLayer* faults) noexcept { faults_ = faults; }

  /// Attaches an admission policy consulted before every enqueue (the
  /// host wires BacklogAdmission to the per-CPU backlog napis). nullptr
  /// (default) admits everything.
  void set_admission(AdmissionPolicy* admission) noexcept {
    admission_ = admission;
  }

  /// Adds this device's enqueue/drop counters and per-queue depth
  /// watermark to `reg` under `prefix` (several devices may share a
  /// prefix for aggregate counting). Low and high drops share "dropped".
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix) {
    reg.add(prefix + "enqueued", enqueued_);
    reg.add(prefix + "dropped", low_dropped_);
    reg.add(prefix + "dropped", high_dropped_);
    reg.add(prefix + "depth", depth_);
  }

  /// Packets currently queued across all priority levels (softnet
  /// backlog_len for backlog napis).
  std::size_t pending_total() const noexcept {
    std::size_t n = 0;
    for (const auto& q : queues) n += q.size();
    return n;
  }

  /// Highest priority level with packets pending; -1 when all empty.
  int highest_pending() const noexcept {
    for (int level = kNumPriorityLevels - 1; level >= 0; --level) {
      if (!queues[static_cast<std::size_t>(level)].empty()) return level;
    }
    return -1;
  }

  static int clamp_level(int level) noexcept {
    if (level < 0) return 0;
    if (level >= kNumPriorityLevels) return kNumPriorityLevels - 1;
    return level;
  }

  std::uint64_t low_dropped() const noexcept {
    return low_dropped_.value();
  }
  std::uint64_t high_dropped() const noexcept {
    return high_dropped_.value();
  }

  /// Per-level input packet queues. Vanilla uses level 0 only; the
  /// paper's two-level PRISM uses 0 and 1.
  std::array<sim::Ring<SkbPtr>, kNumPriorityLevels> queues;

  /// Back-compatible aliases matching the paper's terminology.
  sim::Ring<SkbPtr>& low_queue = queues[0];
  sim::Ring<SkbPtr>& high_queue = queues[1];

  /// Max packets per input queue (the kernel's netdev_max_backlog,
  /// default 1000). Every priority queue gets the same limit.
  std::size_t queue_limit = 1000;

  /// NAPI_STATE_SCHED: set while the device is in a poll list or being
  /// polled; cleared by napi_complete.
  bool scheduled = false;

 protected:
  /// Observed priority class of the packet that will be served next
  /// (-1 = all queues empty). In Prism modes this equals the highest
  /// non-empty level; in vanilla everything sits in queue 0, so the
  /// front skb's recorder-observed class is what a new arrival actually
  /// waits behind.
  int head_class() const noexcept {
    const int hp = highest_pending();
    if (hp < 0) return -1;
    const Skb& front = *queues[static_cast<std::size_t>(hp)].front();
    return front.observed_class > hp ? front.observed_class : hp;
  }

  const PacketProbe* probe_ = &PacketProbe::detached();
  int probe_stage_ = 0;

 private:
  std::string name_;
  fault::FaultLayer* faults_ = nullptr;
  AdmissionPolicy* admission_ = nullptr;
  telemetry::Counter enqueued_;
  telemetry::Counter low_dropped_;
  telemetry::Counter high_dropped_;
  telemetry::Gauge depth_;
};

/// Queue-backed napi used by the bridge's gro_cells and the per-CPU
/// backlog: implements the napi_poll logic of the paper's Fig. 7 (lines
/// 22-38) — if the high-priority queue is non-empty when the poll begins,
/// only a batch of high-priority packets is processed; otherwise a batch
/// from the low-priority queue, exactly like vanilla.
class QueueNapi final : public NapiStruct {
 public:
  QueueNapi(std::string name, PacketStage& stage, const CostModel& cost)
      : NapiStruct(std::move(name)), stage_(stage), cost_(cost) {}

  PollOutcome poll(int batch, sim::Time start) override;

  /// The protocol-processing stage behind this napi (used by PRISM-sync
  /// transitions to invoke the stage directly).
  PacketStage& stage() noexcept { return stage_; }

 private:
  PacketStage& stage_;
  const CostModel& cost_;
};

}  // namespace prism::kernel
