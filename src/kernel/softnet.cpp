#include "kernel/softnet.h"

#include "overlay/netns.h"

namespace prism::kernel {

sim::Duration BacklogStage::process_one(SkbPtr skb, sim::Time at,
                                        double cost_multiplier) {
  auto cost = static_cast<sim::Duration>(
      static_cast<double>(cost_.backlog_stage_per_packet) *
      cost_multiplier);
  skb->ts.stage3_start = at;
  skb->ts.stage3_done = at + cost;
  if (skb->dst_netns == nullptr) {
    // No destination namespace (skb injected past the bridge without
    // routing): drop and recycle rather than dereferencing null.
    ++dropped_;
    t_dropped_->inc();
    probe_->drop(fault::DropReason::kNullNetns, skb->priority, *skb,
                 /*stage=*/3, at);
    return cost;
  }
  if (!skb->dst_netns->accepting()) {
    // Destination namespace began draining after this skb was routed at
    // the bridge (teardown between classification and delivery). The
    // pointer is a tombstone, safe to inspect; the packet drops with one
    // kDeadNetns record per carried frame, matching the deliverer's
    // per-frame accounting.
    ++dropped_;
    t_dropped_->inc();
    const int frames = 1 + static_cast<int>(skb->gro_chain.size());
    probe_->drop(fault::DropReason::kDeadNetns, skb->priority, *skb,
                 /*stage=*/3, at, frames);
    return cost;
  }
  ++delivered_;
  t_delivered_->inc();
  cost += deliverer_.deliver(*skb, at + cost, *skb->dst_netns);
  return cost;
}

}  // namespace prism::kernel
