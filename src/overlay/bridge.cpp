#include "overlay/bridge.h"

#include "net/flow.h"
#include "net/headers.h"
#include "overlay/flow_cache.h"
#include "overlay/netns.h"

namespace prism::overlay {

sim::Duration BridgeStage::process_one(kernel::SkbPtr skb, sim::Time at,
                                       double cost_multiplier) {
  auto cost = static_cast<sim::Duration>(
      static_cast<double>(cost_.bridge_stage_per_packet) *
      cost_multiplier);
  skb->ts.stage2_start = at;
  // The skb carries the parse cached when it entered the pipeline; fall
  // back to parsing the Ethernet header for skbs injected without one.
  Netns* dst = nullptr;
  if (skb->parsed) {
    dst = fdb_.lookup(skb->parsed->eth.dst);
  } else if (const auto eth = net::EthernetHeader::parse(skb->buf.bytes())) {
    dst = fdb_.lookup(eth->dst);
  }
  skb->ts.stage2_done = at + cost;
  if (dst == nullptr) {
    // Unknown destination: a real bridge would flood; with static FDB
    // entries for every container a miss is a wiring error — drop and
    // count so tests catch it. The skb recycles on return.
    dropped_.inc();
    probe_->drop(fault::DropReason::kFdbMiss, skb->priority, *skb,
                 /*stage=*/2, at);
    return cost;
  }
  forwarded_.inc();
  skb->dst_netns = dst;
  skb->stage = 3;

  if (flow_cache_ != nullptr && skb->parsed && skb->parsed->udp) {
    // Record the resolved transform for this flow's next packets. The
    // generation stored is the one captured at this skb's stage-1
    // classification, so any mutation since then leaves the entry stale.
    flow_cache_->insert(net::flow_of(*skb->parsed), vni_, dst,
                        skb->priority, skb->flowcache_gen);
  }

  // Receive Packet Steering: hash the inner flow across the configured
  // CPUs at the netif_rx boundary. PRISM-sync high-priority packets are
  // processed inline before netif_rx is reached, so they are exempt.
  const bool sync_inline =
      skb->high_priority() &&
      transition_.mode() == kernel::NapiMode::kPrismSync;
  if (!rps_targets_.empty() && !sync_inline) {
    const std::size_t hash =
        skb->parsed
            ? std::hash<net::FiveTuple>{}(net::flow_of(*skb->parsed))
            : [&] {
                const auto inner = net::parse_frame(skb->buf.bytes());
                return inner ? std::hash<net::FiveTuple>{}(
                                   net::flow_of(*inner))
                             : std::size_t{0};
              }();
    const RpsTarget& target = rps_targets_[hash % rps_targets_.size()];
    if (target.backlog != &backlog_) {
      rps_steered_.inc();
      cost += cost_.rps_steer_cost;
      // The packet becomes visible on the target CPU one IPI later. The
      // skb is move-captured (InlineFn supports move-only callables): if
      // the simulation ends before the IPI event runs, the skb recycles
      // with the event queue instead of leaking.
      sim_->schedule_at(at + cost + cost_.ipi_latency,
                        [this, target, skb = std::move(skb)]() mutable {
                          target.transition->transit(std::move(skb),
                                                     sim_->now(),
                                                     *target.backlog);
                        });
      return cost;
    }
  }

  return cost + transition_.transit(std::move(skb), at + cost, backlog_,
                                    cost_multiplier);
}

Bridge::Bridge(std::uint32_t vni, const kernel::CostModel& cost, Fdb& fdb,
               const std::vector<kernel::StageTransition*>& transitions,
               const std::vector<kernel::QueueNapi*>& backlogs)
    : vni_(vni) {
  cells_.reserve(transitions.size());
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    Cell cell;
    cell.stage = std::make_unique<BridgeStage>(
        "br", cost, fdb, *transitions[i], *backlogs[i]);
    cell.napi = std::make_unique<kernel::QueueNapi>("br", *cell.stage,
                                                    cost);
    cells_.push_back(std::move(cell));
  }
}

}  // namespace prism::overlay
