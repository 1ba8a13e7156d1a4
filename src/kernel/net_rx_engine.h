// The NET_RX softirq engine: vanilla and PRISM NAPI device polling.
//
// This class is the heart of the reproduction. One engine exists per CPU
// (it models that CPU's net_rx_action state) and implements both polling
// disciplines exactly as the paper presents them:
//
//  * Vanilla (paper Fig. 2): two poll lists per CPU. Each softirq
//    invocation splices the global list into a local one, polls each
//    device once (batch of 64), re-adds devices with remaining packets to
//    the *global* list, and re-raises itself while work remains. The
//    global/local split plus strict tail-enqueue is the scalability
//    optimization that causes the interleaved processing of Fig. 6a.
//
//  * PRISM (paper Fig. 7): a single poll list per CPU. Devices with
//    high-priority packets are inserted (or moved) to the *head* of the
//    list, devices with only low-priority packets to the tail. Combined
//    with the dual per-device queues polled high-first (QueueNapi), this
//    yields the streamlined order of Fig. 6b and batch-level preemption.
//
// Execution model: each net_rx_action invocation is decomposed into CPU
// chunks — one entry chunk plus one chunk per device poll — so that packet
// arrivals, IRQs, and application work interleave with the softirq at
// batch granularity, exactly the granularity at which the real kernel's
// state becomes externally visible.
//
// Starvation avoidance (ksoftirqd): when an invocation exhausts its
// packet budget (napi_budget) or its time budget (netdev_budget_usecs)
// with work remaining, the remainder is NOT re-raised as an immediate
// softirq. It is handed to a modeled ksoftirqd context that runs at task
// priority — new IRQ top-halves and freshly raised softirqs preempt it at
// chunk boundaries — which is how the kernel keeps a saturated receive
// path from starving userspace. OverloadConfig::enabled = false turns the
// deferral off (the engine then re-raises immediately).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/cost_model.h"
#include "kernel/cpu.h"
#include "kernel/napi.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"
#include "trace/poll_trace.h"

namespace prism::kernel {

class OverloadGovernor;

/// Per-CPU NET_RX softirq processing engine.
class NetRxEngine {
 public:
  NetRxEngine(sim::Simulator& sim, Cpu& cpu, const CostModel& cost,
              NapiMode mode);

  NetRxEngine(const NetRxEngine&) = delete;
  NetRxEngine& operator=(const NetRxEngine&) = delete;

  /// Adds a device to this CPU's poll list and raises NET_RX if needed.
  /// `high` marks that the device just received a high-priority packet
  /// (PRISM head insertion; ignored in vanilla mode).
  void napi_schedule(NapiStruct& napi, bool high);

  /// Switches polling discipline. Only legal while the engine is idle
  /// (poll lists empty, no softirq in flight); throws std::logic_error
  /// otherwise.
  void set_mode(NapiMode mode);

  NapiMode mode() const noexcept { return mode_; }

  /// True when no softirq is pending or running, no ksoftirqd pass is
  /// queued, and the lists are empty.
  bool idle() const noexcept {
    return !softirq_pending_ && !in_softirq_ && !ksoftirqd_scheduled_ &&
           global_list_.empty() && local_list_.empty();
  }

  /// Attaches the host's overload governor (poll / squeeze / softirq-end
  /// notifications). nullptr detaches.
  void set_governor(OverloadGovernor* governor) noexcept {
    governor_ = governor;
  }

  /// Runtime switch for the ksoftirqd deferral; off restores the
  /// immediate re-raise.
  void set_ksoftirqd(bool on) noexcept { ksoftirqd_enabled_ = on; }

  /// Attaches a poll-order trace collector (may be nullptr to detach).
  void set_poll_trace(trace::PollTrace* trace) noexcept { trace_ = trace; }
  const trace::PollTrace* poll_trace() const noexcept { return trace_; }

  /// Attaches a timeline span tracer (nullptr detaches). Softirq entries
  /// and device polls are recorded as spans on `track` (one row per CPU
  /// in the exported trace; multi-host setups offset the track).
  void set_span_tracer(telemetry::SpanTracer* tracer, int track);

  /// Registers this engine's counters under `prefix` (e.g. "cpu0.").
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix);

  // Counters for tests and diagnostics.
  std::uint64_t softirq_invocations() const noexcept {
    return softirqs_.value();
  }
  std::uint64_t polls() const noexcept { return polls_.value(); }
  std::uint64_t packets_processed() const noexcept { return packets_.value(); }
  /// Softirq returns forced by budget exhaustion with work remaining —
  /// the kernel's softnet_stat time_squeeze column (packet budget and
  /// time budget combined, as the kernel counts it).
  std::uint64_t time_squeezes() const noexcept {
    return time_squeezes_.value();
  }
  /// time_squeezes split by cause: packet budget (napi_budget) hit.
  std::uint64_t budget_squeezes() const noexcept {
    return budget_squeezes_.value();
  }
  /// time_squeezes split by cause: time budget (netdev_budget_usecs) hit
  /// before the packet budget.
  std::uint64_t time_budget_squeezes() const noexcept {
    return time_budget_squeezes_.value();
  }
  /// Squeezed invocations whose remainder was handed to ksoftirqd.
  std::uint64_t ksoftirqd_deferrals() const noexcept {
    return ksoftirqd_deferrals_;
  }
  /// net_rx_action passes actually run in ksoftirqd context.
  std::uint64_t ksoftirqd_runs() const noexcept {
    return ksoftirqd_runs_.value();
  }
  /// True while the current softirq pass runs in ksoftirqd context.
  bool in_ksoftirqd() const noexcept { return ksoftirqd_ctx_; }
  /// Devices put back on the poll list with packets still pending.
  std::uint64_t requeues() const noexcept { return requeues_.value(); }
  /// PRISM head insertions/moves (batch-level preemptions).
  std::uint64_t head_inserts() const noexcept { return head_inserts_.value(); }

 private:
  void raise_softirq();
  void schedule_ksoftirqd();
  sim::Duration ksoftirqd_chunk();
  sim::Duration entry_chunk();
  sim::Duration poll_chunk();
  void finish_softirq(bool squeezed);
  void trace_poll(NapiStruct* dev, int processed);

  sim::Simulator& sim_;
  Cpu& cpu_;
  const CostModel& cost_;
  NapiMode mode_;

  /// Vanilla: the per-CPU global POLL_LIST; PRISM: the single poll list.
  /// Rings, like every datapath queue: a CPU polls a handful of devices,
  /// so PRISM's move-to-head is a short find + erase + push_front.
  sim::Ring<NapiStruct*> global_list_;
  /// Vanilla only: the softirq-local list net_rx_action works on.
  sim::Ring<NapiStruct*> local_list_;

  bool softirq_pending_ = false;
  bool in_softirq_ = false;
  int budget_ = 0;
  /// Instant the running net_rx_action pass started (time-budget base).
  sim::Time softirq_started_ = 0;
  /// The current pass runs in ksoftirqd (task-priority) context.
  bool ksoftirqd_ctx_ = false;
  /// A ksoftirqd pass is queued on the CPU's task queue.
  bool ksoftirqd_scheduled_ = false;
  bool ksoftirqd_enabled_ = true;
  OverloadGovernor* governor_ = nullptr;

  trace::PollTrace* trace_ = nullptr;
  std::vector<trace::PollTrace::NameId> trace_scratch_;
  telemetry::SpanTracer* tracer_ = nullptr;
  int track_ = 0;
  telemetry::SpanTracer::NameId softirq_span_name_ = 0;
  telemetry::Counter softirqs_;
  telemetry::Counter polls_;
  telemetry::Counter packets_;
  telemetry::Counter time_squeezes_;
  telemetry::Counter budget_squeezes_;
  telemetry::Counter time_budget_squeezes_;
  std::uint64_t ksoftirqd_deferrals_ = 0;
  telemetry::Counter ksoftirqd_runs_;
  telemetry::Counter requeues_;
  telemetry::Counter head_inserts_;
};

}  // namespace prism::kernel
