#include "fault/fault.h"

#include "net/headers.h"
#include "telemetry/json_writer.h"

namespace prism::fault {

const char* drop_reason_name(DropReason r) noexcept {
  switch (r) {
    case DropReason::kWire:
      return "wire";
    case DropReason::kRingFull:
      return "ring_full";
    case DropReason::kMalformed:
      return "malformed";
    case DropReason::kUnroutable:
      return "unroutable";
    case DropReason::kAllocFail:
      return "alloc_fail";
    case DropReason::kBacklogFull:
      return "backlog_full";
    case DropReason::kFdbMiss:
      return "fdb_miss";
    case DropReason::kNullNetns:
      return "null_netns";
    case DropReason::kChecksum:
      return "checksum";
    case DropReason::kNoSocket:
      return "no_socket";
    case DropReason::kRcvbufFull:
      return "rcvbuf_full";
    case DropReason::kFlowLimit:
      return "flow_limit";
    case DropReason::kOverloadShed:
      return "overload_shed";
    case DropReason::kDeadNetns:
      return "dead_netns";
    case DropReason::kCount:
      break;
  }
  return "unknown";
}

std::uint64_t DropLedger::total(DropReason reason) const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : counts_[static_cast<std::size_t>(reason)]) {
    sum += v;
  }
  return sum;
}

std::uint64_t DropLedger::class_total(int level) const noexcept {
  const int cls = clamp_class(level);
  std::uint64_t sum = 0;
  for (const auto& per_class : counts_) {
    sum += per_class[static_cast<std::size_t>(cls)];
  }
  return sum;
}

std::uint64_t DropLedger::total_drops() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& per_class : counts_) {
    for (const std::uint64_t v : per_class) sum += v;
  }
  return sum;
}

void DropLedger::reset() noexcept {
  for (auto& per_class : counts_) per_class.fill(0);
}

void DropLedger::bind_telemetry(telemetry::Registry& reg,
                                const std::string& prefix) {
  for (int r = 0; r < kNumDropReasons; ++r) {
    t_reasons_[static_cast<std::size_t>(r)] = &reg.counter(
        prefix + "drop." + drop_reason_name(static_cast<DropReason>(r)));
  }
}

void FaultPlan::configure(const FaultConfig& cfg) {
  cfg_ = cfg;
  rng_ = sim::Rng(cfg.seed);
  counters_ = FaultCounters{};
  active_ = cfg.any_active();
}

FaultPlan::WireActions FaultPlan::on_wire_frame(net::PacketBuf& frame) {
  WireActions act;
  if (!active_) return act;
  // Fixed draw order keeps the RNG stream a pure function of the arrival
  // sequence: a zero rate skips its draw entirely, so enabling one fault
  // mode never perturbs another's decisions.
  if (cfg_.wire_drop_rate > 0 && rng_.chance(cfg_.wire_drop_rate)) {
    ++counters_.wire_drops;
    act.drop = true;
    return act;
  }
  if (cfg_.wire_corrupt_rate > 0 && rng_.chance(cfg_.wire_corrupt_rate)) {
    if (corrupt_bytes(frame.mutable_bytes(), cfg_.corrupt_payload_only)) {
      ++counters_.wire_corrupts;
    }
  }
  if (cfg_.wire_truncate_rate > 0 && rng_.chance(cfg_.wire_truncate_rate)) {
    const std::size_t sz = frame.size();
    if (sz > 1) {
      const auto keep = static_cast<std::size_t>(
          rng_.uniform_int(1, static_cast<std::int64_t>(sz) - 1));
      frame.truncate(keep);
      ++counters_.wire_truncates;
    }
  }
  if (cfg_.wire_duplicate_rate > 0 && rng_.chance(cfg_.wire_duplicate_rate)) {
    ++counters_.wire_duplicates;
    act.duplicate = true;
  }
  if (cfg_.wire_reorder_rate > 0 && rng_.chance(cfg_.wire_reorder_rate)) {
    ++counters_.wire_reorders;
    act.reorder_delay = cfg_.reorder_delay;
  }
  return act;
}

bool FaultPlan::maybe_corrupt_decap(std::span<std::uint8_t> inner) {
  if (!active_ || cfg_.decap_corrupt_rate <= 0) return false;
  if (!rng_.chance(cfg_.decap_corrupt_rate)) return false;
  if (!corrupt_bytes(inner, cfg_.corrupt_payload_only)) return false;
  ++counters_.decap_corrupts;
  return true;
}

bool FaultPlan::force_ring_full() {
  if (!active_ || cfg_.ring_full_rate <= 0) return false;
  if (!rng_.chance(cfg_.ring_full_rate)) return false;
  ++counters_.forced_ring_full;
  return true;
}

bool FaultPlan::force_backlog_full() {
  if (!active_ || cfg_.backlog_full_rate <= 0) return false;
  if (!rng_.chance(cfg_.backlog_full_rate)) return false;
  ++counters_.forced_backlog_full;
  return true;
}

bool FaultPlan::skb_alloc_fails() {
  if (!active_ || cfg_.skb_alloc_fail_rate <= 0) return false;
  if (!rng_.chance(cfg_.skb_alloc_fail_rate)) return false;
  ++counters_.skb_alloc_fails;
  return true;
}

bool FaultPlan::buf_alloc_fails() {
  if (!active_ || cfg_.buf_alloc_fail_rate <= 0) return false;
  if (!rng_.chance(cfg_.buf_alloc_fail_rate)) return false;
  ++counters_.buf_alloc_fails;
  return true;
}

sim::Duration FaultPlan::irq_fire_delay() {
  if (!active_ || cfg_.irq_delay_rate <= 0) return 0;
  if (!rng_.chance(cfg_.irq_delay_rate)) return 0;
  ++counters_.irq_delays;
  return cfg_.irq_delay;
}

int FaultPlan::irq_storm_extra_fires() {
  if (!active_ || cfg_.irq_storm_rate <= 0) return 0;
  if (!rng_.chance(cfg_.irq_storm_rate)) return 0;
  counters_.irq_storm_irqs +=
      static_cast<std::uint64_t>(cfg_.irq_storm_extra);
  return cfg_.irq_storm_extra;
}

void FaultPlan::count_duplicate(int level) noexcept {
  ++counters_.duplicates_per_class[static_cast<std::size_t>(
      clamp_class(level))];
}

bool FaultPlan::corrupt_bytes(std::span<std::uint8_t> frame,
                              bool payload_only) {
  std::span<std::uint8_t> target = frame;
  if (payload_only) {
    // Flip only innermost L4 payload bits: headers and classification stay
    // intact, so the corruption is caught by L4 checksum validation at
    // socket delivery and the drop lands in the frame's true class.
    const auto parsed = net::parse_frame(frame);
    if (!parsed) return false;
    std::size_t off = parsed->l4_payload_offset;
    std::size_t len = parsed->l4_payload.size();
    if (parsed->is_vxlan()) {
      if (len <= net::VxlanHeader::kSize) return false;
      const std::size_t inner_off = off + net::VxlanHeader::kSize;
      const auto inner = net::parse_frame(frame.subspan(inner_off));
      if (!inner || inner->l4_payload.empty()) return false;
      off = inner_off + inner->l4_payload_offset;
      len = inner->l4_payload.size();
    }
    if (len == 0) return false;
    target = frame.subspan(off, len);
  }
  if (target.empty()) return false;
  const auto bit = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(target.size()) * 8 - 1));
  target[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return true;
}

std::string faults_json(const FaultLayer& layer) {
  const FaultPlan& plan = layer.plan;
  const FaultCounters& c = plan.counters();
  telemetry::JsonWriter w;
  w.begin_object();
  w.member("active", plan.active());
  w.member("seed", plan.config().seed);
  w.key("injected").begin_object();
  w.member("wire_drops", c.wire_drops);
  w.member("wire_corrupts", c.wire_corrupts);
  w.member("wire_truncates", c.wire_truncates);
  w.member("wire_duplicates", c.wire_duplicates);
  w.member("wire_reorders", c.wire_reorders);
  w.member("decap_corrupts", c.decap_corrupts);
  w.member("forced_ring_full", c.forced_ring_full);
  w.member("forced_backlog_full", c.forced_backlog_full);
  w.member("skb_alloc_fails", c.skb_alloc_fails);
  w.member("buf_alloc_fails", c.buf_alloc_fails);
  w.member("irq_delays", c.irq_delays);
  w.member("irq_storm_irqs", c.irq_storm_irqs);
  w.key("duplicates_per_class").begin_array();
  for (const std::uint64_t d : c.duplicates_per_class) w.value(d);
  w.end_array();
  w.end_object();
  w.key("drops").begin_object();
  for (int r = 0; r < kNumDropReasons; ++r) {
    const auto reason = static_cast<DropReason>(r);
    w.key(drop_reason_name(reason)).begin_object();
    w.member("total", layer.drops.total(reason));
    w.key("per_class").begin_array();
    for (int cls = 0; cls < kNumFaultClasses; ++cls) {
      w.value(layer.drops.count(reason, cls));
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.member("total_drops", layer.drops.total_drops());
  w.end_object();
  return w.take();
}

}  // namespace prism::fault
