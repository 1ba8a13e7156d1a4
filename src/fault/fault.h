// Seeded, deterministic fault injection for the packet pipeline.
//
// The paper's claims live on the overload edge — bounded rings, backlog
// drops, HoL blocking under flood — yet clean synthetic traffic never
// exercises the drop/corrupt/overflow paths. This layer injects faults at
// well-defined points (the wire, the NIC ring, VXLAN decap, the backlog,
// the allocators, the IRQ path) from a single seeded RNG so that a run's
// fault pattern is a pure function of (seed, arrival sequence): two runs
// with the same seed produce bit-identical counters, with pools on or off.
//
// Every injected fault is counted (FaultCounters) and every resulting drop
// is attributed to a reason and a priority class (DropLedger), so the
// conservation invariant
//
//     injected frames == delivered + sum over reasons of dropped
//
// can be asserted per class, to the packet (bench/stress_fault.cpp).
//
// A FaultConfig with every rate at zero is the off switch: the plan never
// arms, and every hook returns without drawing from the RNG.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "net/packet.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "telemetry/metrics.h"

// Always 1 (fault injection is always compiled in); perfbench's build
// banner prints it.
#define PRISM_FAULTS_ENABLED 1

namespace prism::fault {

/// Priority classes tracked by the drop ledger. Matches
/// kernel::kNumPriorityLevels (static_assert in host.cpp keeps them in
/// lockstep without a kernel/ include cycle).
constexpr int kNumFaultClasses = 4;

/// Why a frame left the pipeline without reaching a socket. Covers both
/// injected faults and the stack's natural drop paths so the ledger is the
/// single place where "injected == delivered + dropped" is accounted.
enum class DropReason : int {
  kWire = 0,     // dropped on the wire (injected loss)
  kRingFull,     // NIC RX ring at capacity (natural or forced)
  kMalformed,    // failed parse / bad checksum / bad length at the NIC stage
  kUnroutable,   // parsed fine but no bridge / not addressed to this host
  kAllocFail,    // SkbPool or BufferPool refused an allocation
  kBacklogFull,  // per-CPU backlog (netdev_max_backlog) at capacity
  kFdbMiss,      // bridge FDB had no entry for the inner dst MAC
  kNullNetns,    // backlog stage got an skb with no destination namespace
  kChecksum,     // L4 checksum verification failed at socket delivery
  kNoSocket,     // no bound socket for the destination port
  kRcvbufFull,   // socket receive queue at capacity
  kFlowLimit,    // backlog admission: dominant flow on a congested queue
  kOverloadShed, // backlog admission: low-priority shed inside headroom
  kDeadNetns,    // destination namespace was draining or torn down
  kCount
};

constexpr int kNumDropReasons = static_cast<int>(DropReason::kCount);

/// Stable lowercase identifier ("ring_full", "checksum", ...) used for
/// telemetry counter names and the prism/faults proc file.
const char* drop_reason_name(DropReason r) noexcept;

/// Clamps a priority level into the ledger's class axis.
constexpr int clamp_class(int level) noexcept {
  if (level < 0) return 0;
  if (level >= kNumFaultClasses) return kNumFaultClasses - 1;
  return level;
}

/// Per-(reason, priority-class) drop counts. One instance per host; every
/// drop path reports here through the host's packet probe
/// (kernel/probe.h), which also classifies frames known only by their
/// bytes and fans each drop out to the telemetry consumers.
class DropLedger {
 public:
  /// Records one drop. `level` outside [0, kNumFaultClasses) clamps.
  void record(DropReason reason, int level) {
    ++counts_[static_cast<std::size_t>(reason)]
             [static_cast<std::size_t>(clamp_class(level))];
    t_reasons_[static_cast<std::size_t>(reason)]->inc();
  }

  std::uint64_t count(DropReason reason, int level) const noexcept {
    return counts_[static_cast<std::size_t>(reason)]
                  [static_cast<std::size_t>(clamp_class(level))];
  }

  /// Total drops for one reason across classes.
  std::uint64_t total(DropReason reason) const noexcept;

  /// Total drops for one class across reasons.
  std::uint64_t class_total(int level) const noexcept;

  /// Grand total across reasons and classes.
  std::uint64_t total_drops() const noexcept;

  void reset() noexcept;

  /// Registers one counter per reason under `prefix`
  /// (e.g. "faults.drop.ring_full").
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix);

 private:
  std::array<std::array<std::uint64_t, kNumFaultClasses>, kNumDropReasons>
      counts_{};
  std::array<telemetry::Counter*, kNumDropReasons> t_reasons_ =
      sink_counters();

  static std::array<telemetry::Counter*, kNumDropReasons> sink_counters() {
    std::array<telemetry::Counter*, kNumDropReasons> a;
    a.fill(&telemetry::Counter::sink());
    return a;
  }
};

/// Fault rates and parameters. All rates are probabilities in [0, 1];
/// a rate of 0 means the corresponding RNG stream is never drawn from, so
/// enabling one fault mode does not perturb another's sequence.
struct FaultConfig {
  std::uint64_t seed = 1;

  // Wire faults, applied per frame at Nic::receive in a fixed order:
  // drop -> corrupt -> truncate -> duplicate -> reorder (drop short-circuits).
  double wire_drop_rate = 0.0;
  double wire_corrupt_rate = 0.0;
  double wire_truncate_rate = 0.0;
  double wire_duplicate_rate = 0.0;
  double wire_reorder_rate = 0.0;
  /// Extra delivery delay for reordered frames.
  sim::Duration reorder_delay = sim::microseconds(50);

  /// Bit-flip the decapsulated inner frame at VXLAN decap.
  double decap_corrupt_rate = 0.0;

  /// Restrict corruption (wire and decap) to the innermost L4 payload.
  /// Header bits stay intact, so classification still works and the
  /// corruption is caught by receive-side L4 checksum validation —
  /// conservation then holds per class. With this off, any bit of the
  /// frame may flip (headers included) and only total-level conservation
  /// is guaranteed: a frame whose classification bits were destroyed is
  /// counted in class 0.
  bool corrupt_payload_only = true;

  /// Probability that an RX ring push is treated as ring-full.
  double ring_full_rate = 0.0;
  /// Probability that a backlog enqueue is treated as backlog-full.
  double backlog_full_rate = 0.0;

  /// Allocation-failure injection (pool starvation).
  double skb_alloc_fail_rate = 0.0;
  double buf_alloc_fail_rate = 0.0;

  /// Delayed IRQ delivery against the NAPI mask/unmask logic.
  double irq_delay_rate = 0.0;
  sim::Duration irq_delay = sim::microseconds(20);

  /// IRQ storms: one hardware fire becomes 1 + irq_storm_extra handler
  /// invocations (spurious re-fires while the IRQ is masked).
  double irq_storm_rate = 0.0;
  int irq_storm_extra = 3;

  /// True when any fault mode has a nonzero rate.
  bool any_active() const noexcept {
    return wire_drop_rate > 0 || wire_corrupt_rate > 0 ||
           wire_truncate_rate > 0 || wire_duplicate_rate > 0 ||
           wire_reorder_rate > 0 || decap_corrupt_rate > 0 ||
           ring_full_rate > 0 || backlog_full_rate > 0 ||
           skb_alloc_fail_rate > 0 || buf_alloc_fail_rate > 0 ||
           irq_delay_rate > 0 || irq_storm_rate > 0;
  }
};

/// Injection counters: how many faults the plan actually fired. Paired
/// with the DropLedger these close the conservation equation (duplicates
/// add to the injected side; everything else adds to the dropped side or
/// is latency-only).
struct FaultCounters {
  std::uint64_t wire_drops = 0;
  std::uint64_t wire_corrupts = 0;
  std::uint64_t wire_truncates = 0;
  std::uint64_t wire_duplicates = 0;
  std::uint64_t wire_reorders = 0;
  std::uint64_t decap_corrupts = 0;
  std::uint64_t forced_ring_full = 0;
  std::uint64_t forced_backlog_full = 0;
  std::uint64_t skb_alloc_fails = 0;
  std::uint64_t buf_alloc_fails = 0;
  std::uint64_t irq_delays = 0;
  std::uint64_t irq_storm_irqs = 0;
  /// Duplicates by the duplicated frame's priority class — the injected
  /// side of per-class conservation.
  std::array<std::uint64_t, kNumFaultClasses> duplicates_per_class{};
};

/// The seeded fault decision engine. One per host; all injection points
/// consult it so the RNG stream is a deterministic function of the
/// host-local arrival sequence.
class FaultPlan {
 public:
  /// What Nic::receive should do with a frame after wire faults were
  /// applied. Corruption/truncation mutate the frame in place.
  struct WireActions {
    bool drop = false;
    bool duplicate = false;
    sim::Duration reorder_delay = 0;  // 0: deliver in order
  };

  FaultPlan() : rng_(1) {}

  /// Arms the plan: installs the config, reseeds the RNG, zeroes the
  /// counters. The plan arms only when some rate is nonzero.
  void configure(const FaultConfig& cfg);

  bool active() const noexcept { return active_; }
  const FaultConfig& config() const noexcept { return cfg_; }
  const FaultCounters& counters() const noexcept { return counters_; }

  /// Applies wire faults to `frame` in a fixed draw order. Only called on
  /// the ingress path of Nic::receive.
  WireActions on_wire_frame(net::PacketBuf& frame);

  /// Maybe bit-flips the decapsulated inner Ethernet frame. Returns true
  /// when a corruption was injected.
  bool maybe_corrupt_decap(std::span<std::uint8_t> inner);

  /// Forced-episode and starvation draws; true means "inject the fault".
  bool force_ring_full();
  bool force_backlog_full();
  bool skb_alloc_fails();
  bool buf_alloc_fails();

  /// Extra delay before the IRQ handler runs; 0 when no fault fired.
  sim::Duration irq_fire_delay();
  /// Number of spurious extra handler invocations; 0 when no storm fired.
  int irq_storm_extra_fires();

  /// Attributes one injected duplicate to `level` (clamped).
  void count_duplicate(int level) noexcept;

  std::uint64_t duplicates_for_class(int level) const noexcept {
    if (level < 0 || level >= kNumFaultClasses) return 0;
    return counters_.duplicates_per_class[static_cast<std::size_t>(level)];
  }

 private:
  /// Flips one RNG-chosen bit of `frame` (an Ethernet frame). When
  /// `payload_only`, descends through VXLAN to the innermost L4 payload
  /// and skips the frame entirely if it has none. Returns true when a bit
  /// was flipped.
  bool corrupt_bytes(std::span<std::uint8_t> frame, bool payload_only);

  FaultConfig cfg_;
  sim::Rng rng_;
  FaultCounters counters_;
  bool active_ = false;
};

/// The per-host fault bundle handed to every injection point.
struct FaultLayer {
  FaultPlan plan;
  DropLedger drops;
};

/// Renders the plan state, injection counters and drop ledger as one JSON
/// document (the "prism/faults" proc file). Deterministic: byte-identical
/// for identical counter state, so it doubles as the determinism-check
/// snapshot.
std::string faults_json(const FaultLayer& layer);

}  // namespace prism::fault
