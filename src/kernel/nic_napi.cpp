#include "kernel/nic_napi.h"

#include <cassert>
#include <utility>

#include "kernel/net_rx_engine.h"
#include "net/flow.h"
#include "overlay/flow_cache.h"
#include "overlay/netns.h"

namespace prism::kernel {

namespace {

/// Max frames GRO merges into one super-skb (64 KB / MSS, as in the
/// kernel's GRO_MAX limit).
constexpr int kGroMaxSegments = 45;

}  // namespace

NicNapi::NicNapi(std::string name, nic::RxQueue& ring, NicNapiContext ctx)
    : NapiStruct(std::move(name)), ring_(ring), ctx_(std::move(ctx)) {
  assert(ctx_.engine && ctx_.transition && ctx_.cost && ctx_.deliverer &&
         ctx_.root_ns && "NicNapi: incomplete context");
}

sim::Duration NicNapi::flush(GroSlot& slot, sim::Time at, double mult) {
  if (!slot.skb) return 0;
  SkbPtr skb = std::move(slot.skb);
  const Route route = slot.route;
  slot = GroSlot{};
  skb->ts.stage1_done = at;
  if (route.host_path) {
    return ctx_.deliverer->deliver(*skb, at, *ctx_.root_ns);
  }
  return ctx_.transition->transit(std::move(skb), at, *route.bridge,
                                  mult);
}

PollOutcome NicNapi::poll(int batch, sim::Time start) {
  PollOutcome out;
  out.cost = ctx_.cost->napi_poll_overhead;
  if (irq_at_ >= 0) {
    ctx_.probe->irq_to_poll(start - irq_at_);
    irq_at_ = -1;
  }
  const bool prism_mode = ctx_.engine->mode() != NapiMode::kVanilla;
  const double mult = ctx_.cost->depth_multiplier(ring_.size());
  auto scaled = [mult](sim::Duration d) {
    return static_cast<sim::Duration>(static_cast<double>(d) * mult);
  };
  GroSlot slot;

  while (out.processed < batch) {
    auto entry = ring_.pop();
    if (!entry) break;
    ++out.processed;
    // Driver service of this frame begins here; everything between the
    // DMA stamp and this instant is ring wait (the paper's §IV-D
    // irreducible segment).
    const sim::Time dequeued = start + out.cost;

    net::ParsedFrame parsed;
    if (!net::parse_frame_into(entry->frame.bytes(), parsed)) {
      // Receive-side validation: bad IPv4 checksum, short/truncated
      // buffers and inconsistent lengths all fail parse_frame_into.
      // Dropping here (instead of processing garbage) is what the kernel's
      // ip_rcv does; the ring entry's storage recycles on destruction.
      ++dropped_malformed_;
      t_malformed_->inc();
      ctx_.probe->drop(fault::DropReason::kMalformed, entry->frame.bytes());
      out.cost += scaled(ctx_.cost->nic_stage_per_packet);
      continue;
    }

    // Parse-once: for VXLAN frames the encapsulation header and the inner
    // frame are parsed here, and the result is shared by classification,
    // GRO keying, and (cached in the skb) every later pipeline stage.
    // The inner spans point into the frame's storage, which survives the
    // moves and the in-place decapsulation below.
    std::optional<net::VxlanHeader> vxlan;
    std::optional<net::ParsedFrame> inner;
    if (parsed.is_vxlan()) {
      vxlan = net::VxlanHeader::parse(parsed.l4_payload);
      if (vxlan) {
        if (ctx_.faults != nullptr && ctx_.faults->plan.active()) {
          // Decap-time corruption hits the inner frame only, after the
          // outer headers were validated — the ONCache-style failure
          // surface where encap/decap bugs bite.
          const bool corrupted = ctx_.faults->plan.maybe_corrupt_decap(
              entry->frame.mutable_bytes().subspan(
                  parsed.l4_payload_offset + net::VxlanHeader::kSize));
          if (corrupted && ctx_.flow_cache != nullptr) {
            // A corrupted decap means cached transforms may no longer
            // match what the slow path would produce for these bytes:
            // void them all, so this packet (and everything cached) walks
            // the full pipeline and re-resolves.
            ctx_.flow_cache->invalidate();
          }
        }
        inner.emplace();
        if (!net::parse_frame_into(
                parsed.l4_payload.subspan(net::VxlanHeader::kSize),
                *inner)) {
          inner.reset();
        }
      }
    }

    // Overlay flow cache: probe for a cached transform. UDP inner flows
    // only — TCP stays on the slow path so GRO keeps merging its trains
    // (losing the merge would cost more than the stages save) and
    // segment ordering through the stage queues is preserved.
    const overlay::FlowCacheEntry* cached = nullptr;
    const bool fc_active = ctx_.flow_cache != nullptr &&
                           ctx_.flow_cache->enabled() && vxlan && inner;
    if (fc_active && inner->udp) {
      out.cost += ctx_.cost->flowcache_lookup;
      cached = ctx_.flow_cache->lookup(net::flow_of(*inner), vxlan->vni);
    }

    // PRISM: classify once, at skb-allocation time. A flow-cache hit
    // reuses the level classify() produced when the entry was filled —
    // the generation check guarantees the database is unchanged since, so
    // the cached level is exactly what classify() would return now.
    int level = 0;
    if (cached != nullptr) {
      level = cached->priority;
    } else if (prism_mode && ctx_.priority_db != nullptr) {
      level =
          ctx_.priority_db->classify(parsed, inner ? &*inner : nullptr);
      out.cost += ctx_.cost->priority_check;
    }
    const bool high = level > 0;

    if (ctx_.faults != nullptr && ctx_.faults->plan.skb_alloc_fails()) {
      // Injected SkbPool starvation: the frame is dropped exactly where
      // the real driver drops on alloc failure — after classification,
      // before any skb state exists. The ring entry recycles on scope
      // exit.
      ctx_.probe->drop(fault::DropReason::kAllocFail, level);
      out.cost += scaled(ctx_.cost->nic_stage_per_packet);
      continue;
    }
    auto skb = alloc_skb();
    if (!skb) {
      // Genuine pool exhaustion degrades the same way as injected
      // starvation: drop, count, move on.
      ctx_.probe->drop(fault::DropReason::kAllocFail, level);
      out.cost += scaled(ctx_.cost->nic_stage_per_packet);
      continue;
    }
    skb->priority = level;
    skb->ts.nic_rx = entry->arrived;
    skb->ts.stage1_start = dequeued;
    if (fc_active) {
      // Generation at classification time: a stage-2 cache fill records
      // this value, so a mutation landing between now and the fill
      // leaves the entry already stale (see skb.h).
      skb->flowcache_gen = ctx_.flow_cache->generation();
    }

    ctx_.probe->ring_arrival(*skb, parsed, inner ? &*inner : nullptr,
                             entry->arrived, dequeued);

    Route route;
    net::FiveTuple gro_key;
    bool gro_ok = false;

    if (parsed.is_vxlan()) {
      if (cached != nullptr) {
        // Fast path (ONCache): the cached transform replaces the VNI
        // lookup, the bridge FDB walk, the veth transition and the
        // backlog queueing. Flush any pending GRO train first so
        // cross-flow poll ordering matches the slow path, then decap in
        // place and deliver straight into the cached namespace.
        skb->buf = std::move(entry->frame);
        skb->buf.pop_front(parsed.l4_payload_offset +
                           net::VxlanHeader::kSize);
        skb->parsed = std::move(inner);
        skb->dst_netns = cached->dst;
        skb->stage = 1;
        out.cost += flush(slot, start + out.cost, mult);
        out.cost += scaled(ctx_.cost->nic_stage_per_packet);
        skb->ts.stage1_done = start + out.cost;
        out.cost += scaled(ctx_.cost->flowcache_fast_path);
        skb->ts.flowcache_done = start + out.cost;
        if (skb->traced) ctx_.probe->fast_path(*skb, start + out.cost);
        out.cost += ctx_.deliverer->deliver(*skb, start + out.cost,
                                            *cached->dst);
        continue;
      }
      QueueNapi* bridge =
          (vxlan && ctx_.vxlan_lookup) ? ctx_.vxlan_lookup(vxlan->vni)
                                       : nullptr;
      if (bridge == nullptr) {
        ++dropped_;
        t_unroutable_->inc();
        skb->parsed = std::move(inner);  // names the journey that ends here
        ctx_.probe->drop(fault::DropReason::kUnroutable, level, *skb, 1,
                         dequeued);
        out.cost += scaled(ctx_.cost->nic_stage_per_packet);
        continue;
      }
      // Decapsulate: strip outer Ethernet/IPv4/UDP/VXLAN in place.
      skb->buf = std::move(entry->frame);
      skb->buf.pop_front(parsed.l4_payload_offset +
                         net::VxlanHeader::kSize);
      route.bridge = bridge;
      skb->stage = 2;
      if (!high && inner && inner->tcp && !inner->l4_payload.empty()) {
        gro_key = net::flow_of(*inner);
        gro_ok = true;
      }
      skb->parsed = std::move(inner);  // parse of the decapsulated bytes
    } else if (parsed.ip.dst == ctx_.root_ns->ip()) {
      skb->buf = std::move(entry->frame);
      route.host_path = true;
      skb->stage = 1;
      if (!high && parsed.tcp && !parsed.l4_payload.empty()) {
        gro_key = net::flow_of(parsed);
        gro_ok = true;
      }
      skb->parsed = std::move(parsed);
    } else {
      ++dropped_;
      t_unroutable_->inc();
      skb->parsed = std::move(parsed);  // names the journey that ends here
      ctx_.probe->drop(fault::DropReason::kUnroutable, level, *skb, 1,
                       dequeued);
      out.cost += scaled(ctx_.cost->nic_stage_per_packet);
      continue;
    }

    // GRO: append to the pending train when flow and route match.
    if (gro_ok && slot.skb && slot.count < kGroMaxSegments &&
        slot.route.bridge == route.bridge &&
        slot.route.host_path == route.host_path && slot.key == gro_key) {
      slot.skb->gro_chain.push_back(std::move(skb->buf));
      ++slot.skb->segments;
      ++slot.count;
      ++gro_merged_;
      t_gro_merged_->inc();
      out.cost += scaled(ctx_.cost->gro_merge_per_segment);
      continue;
    }

    // Different flow (or not mergeable): flush any pending train first.
    out.cost += flush(slot, start + out.cost, mult);

    const sim::Duration head_cost =
        scaled(route.host_path ? ctx_.cost->host_path_per_packet
                               : ctx_.cost->nic_stage_per_packet);
    out.cost += head_cost;

    if (gro_ok) {
      slot.skb = std::move(skb);
      slot.route = route;
      slot.key = gro_key;
      slot.count = 1;
      continue;
    }

    skb->ts.stage1_done = start + out.cost;
    if (route.host_path) {
      out.cost +=
          ctx_.deliverer->deliver(*skb, start + out.cost, *ctx_.root_ns);
    } else {
      out.cost += ctx_.transition->transit(std::move(skb),
                                           start + out.cost,
                                           *route.bridge, mult);
    }
  }

  // GRO flush at the end of the poll (napi_gro_flush).
  out.cost += flush(slot, start + out.cost, mult);
  out.has_more = !ring_.empty();
  return out;
}

}  // namespace prism::kernel
