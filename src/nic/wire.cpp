#include "nic/wire.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nic/nic.h"

namespace prism::nic {

Wire::Wire(sim::Simulator& sim, double bandwidth_gbps,
           sim::Duration propagation)
    : sim_(sim),
      bits_per_ns_(bandwidth_gbps),  // 1 Gbps == 1 bit/ns
      propagation_(propagation) {
  if (bandwidth_gbps <= 0) {
    throw std::invalid_argument("Wire: bandwidth must be positive");
  }
}

void Wire::attach(Nic& a, Nic& b) {
  if (a_ != nullptr || b_ != nullptr) {
    throw std::logic_error("Wire: already attached");
  }
  a_ = &a;
  b_ = &b;
}

sim::Duration Wire::serialization_time(std::size_t bytes) const noexcept {
  // 20 bytes of Ethernet preamble + IFG per frame, as on a real link.
  const double bits = static_cast<double>(bytes + 20) * 8.0;
  const auto t = static_cast<sim::Duration>(bits / bits_per_ns_);
  return t < 1 ? 1 : t;
}

void Wire::transmit_from(const Nic& src, net::PacketBuf frame) {
  if (a_ == nullptr || b_ == nullptr) {
    throw std::logic_error("Wire: transmit before attach");
  }
  const bool from_a = &src == a_;
  if (!from_a && &src != b_) {
    throw std::logic_error("Wire: transmit from unattached NIC");
  }
  Nic* dst = from_a ? b_ : a_;
  sim::Time& busy_until = from_a ? busy_until_ab_ : busy_until_ba_;

  const sim::Duration ser = serialization_time(frame.size());
  const sim::Time start = std::max(sim_.now(), busy_until);
  busy_until = start + ser;
  if (from_a) {
    ++delivered_ab_;
  } else {
    ++delivered_ba_;
  }
  sim_.schedule_at(busy_until + propagation_,
                   [dst, f = std::move(frame)]() mutable {
                     dst->receive(std::move(f));
                   });
}

}  // namespace prism::nic
