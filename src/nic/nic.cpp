#include "nic/nic.h"

#include <stdexcept>
#include <utility>

#include "net/flow.h"
#include "nic/wire.h"

namespace prism::nic {

RxQueue::RxQueue(sim::Simulator& sim, std::size_t capacity,
                 CoalesceConfig coalesce)
    : sim_(sim), capacity_(capacity), coalesce_(coalesce) {
  if (capacity == 0) {
    throw std::invalid_argument("RxQueue: capacity must be positive");
  }
  if (coalesce.frames < 1) {
    throw std::invalid_argument("RxQueue: coalesce.frames must be >= 1");
  }
}

void RxQueue::set_irq_handler(std::function<void()> handler) {
  irq_handler_ = std::move(handler);
}

void RxQueue::bind_telemetry(telemetry::Registry& reg,
                             const std::string& prefix) {
  t_frames_ = &reg.counter(prefix + "frames");
  t_ring_drops_ = &reg.counter(prefix + "ring_drops");
  t_irqs_ = &reg.counter(prefix + "irqs");
  t_irq_unmask_ = &reg.counter(prefix + "irq_unmask");
  t_mod_fires_ = &reg.counter(prefix + "moderation_fires");
  t_ring_depth_ = &reg.gauge(prefix + "ring_depth");
}

void RxQueue::push(net::PacketBuf frame) {
  bool full = ring_.size() >= capacity_;
  if (!full && faults_ != nullptr && faults_->plan.force_ring_full()) {
    full = true;
  }
  if (full) {
    ++dropped_;
    t_ring_drops_->inc();
    probe_->drop(fault::DropReason::kRingFull, frame.bytes());
    return;
  }
  ring_.push_back(Entry{std::move(frame), sim_.now()});
  ++received_;
  t_frames_->inc();
  t_ring_depth_->set(static_cast<std::int64_t>(ring_.size()));
  maybe_fire();
}

void RxQueue::maybe_fire() {
  if (!irq_enabled_ || ring_.empty()) return;
  if (coalesce_.usecs == 0 ||
      static_cast<int>(ring_.size()) >=
          coalesce_.frames ||
      sim_.now() - last_fire_ >= coalesce_.usecs) {
    // No moderation, frame threshold reached, or the line has been quiet
    // long enough (adaptive low-rate behaviour): interrupt immediately.
    fire_irq();
    return;
  }
  // Moderated: one interrupt per `usecs`. Arm a timer for the end of the
  // current moderation window.
  if (timer_armed_) return;
  timer_armed_ = true;
  const std::uint64_t epoch = epoch_;
  sim_.schedule_at(last_fire_ + coalesce_.usecs, [this, epoch] {
    if (epoch != epoch_) return;  // an earlier fire superseded this timer
    timer_armed_ = false;
    t_mod_fires_->inc();
    if (irq_enabled_ && !ring_.empty()) fire_irq();
  });
}

std::optional<RxQueue::Entry> RxQueue::pop() {
  if (ring_.empty()) return std::nullopt;
  Entry e = std::move(ring_.front());
  ring_.pop_front();
  return e;
}

void RxQueue::enable_irq() {
  irq_enabled_ = true;
  t_irq_unmask_->inc();
  maybe_fire();
}

void RxQueue::fire_irq() {
  irq_enabled_ = false;
  last_fire_ = sim_.now();
  ++epoch_;
  timer_armed_ = false;
  ++irqs_;
  t_irqs_->inc();
  if (!irq_handler_) return;
  if (faults_ != nullptr && faults_->plan.active()) {
    const sim::Duration delay = faults_->plan.irq_fire_delay();
    const int extra = faults_->plan.irq_storm_extra_fires();
    if (delay > 0 || extra > 0) {
      // Delayed and/or spurious handler invocations. The extra fires hit
      // a masked line (irq_enabled_ is already false), exercising the
      // NAPI schedule path's idempotence the way a stuck INTx line would.
      for (int i = 0; i <= extra; ++i) {
        sim_.schedule(delay + i, [this] {
          if (irq_handler_) irq_handler_();
        });
      }
      return;
    }
  }
  irq_handler_();
}

Nic::Nic(sim::Simulator& sim, int num_queues, std::size_t ring_capacity,
         CoalesceConfig coalesce)
    : sim_(sim) {
  if (num_queues < 1) {
    throw std::invalid_argument("Nic: need at least one queue");
  }
  queues_.reserve(static_cast<std::size_t>(num_queues));
  for (int i = 0; i < num_queues; ++i) {
    queues_.push_back(
        std::make_unique<RxQueue>(sim, ring_capacity, coalesce));
  }
}

void Nic::bind_telemetry(telemetry::Registry& reg,
                         const std::string& prefix) {
  t_tx_ = &reg.counter(prefix + "tx_frames");
  t_rx_ = &reg.counter(prefix + "rx_frames");
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    queues_[i]->bind_telemetry(reg,
                               prefix + "q" + std::to_string(i) + ".");
  }
}

void Nic::transmit(net::PacketBuf frame) {
  if (wire_ == nullptr) {
    throw std::logic_error("Nic::transmit: no wire attached");
  }
  ++tx_frames_;
  t_tx_->inc();
  wire_->transmit_from(*this, std::move(frame));
}

void Nic::set_faults(fault::FaultLayer* faults) noexcept {
  faults_ = faults;
  for (auto& q : queues_) q->set_faults(faults);
}

void Nic::set_probe(const kernel::PacketProbe* probe) noexcept {
  probe_ = probe;
  for (auto& q : queues_) q->set_probe(probe);
}

void Nic::receive(net::PacketBuf frame) {
  if (faults_ != nullptr && faults_->plan.active()) {
    const auto act = faults_->plan.on_wire_frame(frame);
    if (act.drop) {
      // Lost on the wire: the NIC never saw it. The frame's storage
      // recycles to the BufferPool on destruction.
      probe_->drop(fault::DropReason::kWire, frame.bytes());
      return;
    }
    if (act.duplicate) {
      // The duplicate counts on the injected side of the conservation
      // equation, attributed to the frame's priority class.
      faults_->plan.count_duplicate(probe_->frame_class(frame.bytes()));
      deliver_to_ring(net::PacketBuf(frame));
    }
    if (act.reorder_delay > 0) {
      sim_.schedule(act.reorder_delay,
                    [this, f = std::move(frame)]() mutable {
                      deliver_to_ring(std::move(f));
                    });
      return;
    }
  }
  deliver_to_ring(std::move(frame));
}

void Nic::deliver_to_ring(net::PacketBuf frame) {
  ++rx_frames_;
  t_rx_->inc();
  const int q = rss_hash(frame.bytes());
  queues_[static_cast<std::size_t>(q)]->push(std::move(frame));
}

std::uint64_t Nic::rx_dropped() const {
  std::uint64_t total = 0;
  for (const auto& q : queues_) total += q->frames_dropped();
  return total;
}

int Nic::rss_hash(std::span<const std::uint8_t> frame) const {
  if (queues_.size() == 1) return 0;
  // Hash of the outer 5-tuple, as hardware RSS does. VXLAN entropy comes
  // from the outer UDP source port, which encapsulation derives from the
  // inner flow.
  const auto parsed = net::parse_frame(frame);
  if (!parsed) return 0;
  const auto h = std::hash<net::FiveTuple>{}(net::flow_of(*parsed));
  return static_cast<int>(h % queues_.size());
}

}  // namespace prism::nic
