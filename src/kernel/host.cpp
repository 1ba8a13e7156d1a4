#include "kernel/host.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "net/flow.h"

namespace prism::kernel {

namespace {

/// Inner-path MTU (Docker overlay default): outer MTU minus VXLAN
/// overhead.
constexpr std::size_t kOverlayMtu = net::kMtu - net::kEncapHeadroom;

// The ledger's class axis mirrors the PRISM priority levels; a level
// added to one must be added to the other.
static_assert(telemetry::kNumLatencyClasses == kNumPriorityLevels,
              "latency ledger classes must mirror PRISM priority levels");
static_assert(fault::kNumFaultClasses == kNumPriorityLevels,
              "drop ledger classes must mirror PRISM priority levels");
static_assert(telemetry::kNumAnomalyClasses == kNumPriorityLevels,
              "anomaly SLO classes must mirror PRISM priority levels");

}  // namespace

Host::Host(sim::Simulator& sim, HostConfig config)
    : sim_(sim), cfg_(std::move(config)) {
  if (cfg_.num_cpus < 1) {
    throw std::invalid_argument("Host: need at least one CPU");
  }
  if (cfg_.mac == net::MacAddr{}) {
    cfg_.mac = net::MacAddr::make(cfg_.ip.value);
  }

  // Queue -> CPU map.
  queue_cpu_map_ = cfg_.queue_cpu_map;
  if (queue_cpu_map_.empty()) {
    for (int q = 0; q < cfg_.nic_queues; ++q) {
      queue_cpu_map_.push_back(q % cfg_.num_cpus);
    }
  }
  if (static_cast<int>(queue_cpu_map_.size()) != cfg_.nic_queues) {
    throw std::invalid_argument("Host: queue_cpu_map size mismatch");
  }
  for (int c : queue_cpu_map_) {
    if (c < 0 || c >= cfg_.num_cpus) {
      throw std::invalid_argument("Host: queue mapped to invalid CPU");
    }
  }

  root_ns_ = std::make_unique<overlay::Netns>(cfg_.name, cfg_.ip, cfg_.mac,
                                              /*is_container=*/false);
  deliverer_ = std::make_unique<SocketDeliverer>(sim_, cfg_.cost);
  nic_ = std::make_unique<nic::Nic>(sim_, cfg_.nic_queues,
                                    cfg_.nic_ring_capacity, cfg_.coalesce);

  nic_->bind_telemetry(telemetry_.registry, "nic.");
  deliverer_->bind_telemetry(telemetry_.registry, "sockets.");

  // Packet-journey probe: every datapath site reports each journey point
  // here once, and the probe fans it out to the drop ledger, latency
  // ledger, flow table, flight recorder and anomaly bank. Drops known only
  // by their bytes (the NIC ring) classify through the priority DB
  // exactly as the stage-1 poll would have, so per-class conservation can
  // be asserted across the drop.
  probe_.drops = &faults_.drops;
  probe_.latency = &telemetry_.latency;
  probe_.flows = &telemetry_.flows;
  probe_.recorder = &telemetry_.recorder;
  probe_.anomalies = &telemetry_.anomalies;
  probe_.priority_db = &priority_db_;
  probe_.prism_mode = cfg_.mode != NapiMode::kVanilla;
  probe_.clock = &sim_;
  nic_->set_probe(&probe_);
  deliverer_->set_probe(&probe_);
  // A firing detector freezes the recorder's newest events as evidence.
  // Both are armed by default (inversion detection only) and never alter
  // the schedule.
  telemetry_.anomalies.set_recorder(&telemetry_.recorder);

  // Fault layer: arm the plan from the config; the drop ledger counts
  // natural drops whether or not a fault is armed.
  faults_.plan.configure(cfg_.faults);
  faults_.drops.bind_telemetry(telemetry_.registry, "faults.");
  nic_->set_faults(&faults_);
  deliverer_->set_faults(&faults_);

  // Overload governor: one per host, fed by every engine's softirq loop,
  // the NIC IRQ lines, the backlog admissions, and the socket deliverer.
  governor_ = std::make_unique<OverloadGovernor>(sim_, cfg_.overload,
                                                 cfg_.netdev_max_backlog);
  governor_->bind_telemetry(telemetry_.registry, "overload.");
  governor_->set_depth_probe([this] {
    std::size_t deepest = 0;
    for (const auto& pc : per_cpu_) {
      deepest = std::max(deepest, pc->backlog->pending_total());
    }
    return deepest;
  });
  governor_->set_moderation_hook([this](bool overloaded) {
    // Graceful degradation at the source: declared overload stretches the
    // NIC's interrupt spacing so batches deepen and the IRQ rate falls;
    // recovery restores the configured moderation.
    for (int q = 0; q < cfg_.nic_queues; ++q) {
      nic::CoalesceConfig c = cfg_.coalesce;
      if (overloaded) {
        c.usecs = c.usecs > 0
                      ? static_cast<sim::Duration>(
                            static_cast<double>(c.usecs) *
                            cfg_.overload.moderation_stretch)
                      : cfg_.overload.moderation_floor;
      }
      nic_->queue(q).set_coalesce(c);
    }
  });
  governor_->set_transition_observer(
      [this](const OverloadGovernor::Transition& t) {
        telemetry_.anomalies.on_governor_transition(
            t.at, static_cast<int>(t.from), static_cast<int>(t.to),
            t.cause);
      });
  deliverer_->set_governor(governor_.get());

  // Overlay flow cache: always constructed (stable counter and accessor
  // surface), consulted by the datapath only when cfg_.flow_cache enables
  // it. Invalidation fans in from every transform-changing event: FDB
  // mutations (hook installed per bridge), priority-db mutations (hook
  // below), overlay-route changes, NAPI mode switches, and fault-injected
  // decap corruption (nic_napi).
  flow_cache_ =
      std::make_unique<overlay::FlowCache>(cfg_.flow_cache_capacity);
  flow_cache_->set_enabled(cfg_.flow_cache);
  flow_cache_->bind_telemetry(telemetry_.registry, "flowcache.");
  priority_db_.set_mutation_hook([this] { flow_cache_->invalidate(); });

  // Per-CPU softirq machinery.
  for (int i = 0; i < cfg_.num_cpus; ++i) {
    auto pc = std::make_unique<PerCpu>();
    pc->cpu = std::make_unique<Cpu>(sim_, cfg_.cost, i);
    pc->engine =
        std::make_unique<NetRxEngine>(sim_, *pc->cpu, cfg_.cost, cfg_.mode);
    pc->transition =
        std::make_unique<StageTransition>(*pc->engine, cfg_.cost);
    pc->backlog_stage =
        std::make_unique<BacklogStage>("veth", cfg_.cost, *deliverer_);
    pc->backlog = std::make_unique<QueueNapi>("veth", *pc->backlog_stage,
                                              cfg_.cost);
    const std::string cpu_prefix = "cpu" + std::to_string(i) + ".";
    pc->engine->bind_telemetry(telemetry_.registry, cpu_prefix);
    pc->backlog->bind_telemetry(telemetry_.registry,
                                cpu_prefix + "backlog.");
    pc->backlog_stage->bind_telemetry(telemetry_.registry,
                                      cpu_prefix + "veth.");
    pc->backlog->set_faults(&faults_);
    pc->backlog->set_probe(&probe_, /*stage=*/3);
    pc->backlog_stage->set_probe(&probe_);
    pc->backlog->queue_limit = cfg_.netdev_max_backlog;
    pc->admission = std::make_unique<BacklogAdmission>(
        cfg_.overload, cfg_.netdev_max_backlog);
    pc->admission->set_governor(governor_.get());
    pc->backlog->set_admission(pc->admission.get());
    pc->engine->set_governor(governor_.get());
    pc->engine->set_ksoftirqd(cfg_.overload.enabled);
    per_cpu_.push_back(std::move(pc));
  }

  // Stage-1 NAPIs, one per RSS queue, wired to their CPU's engine.
  for (int q = 0; q < cfg_.nic_queues; ++q) {
    const int cpu_idx = queue_cpu_map_[static_cast<std::size_t>(q)];
    PerCpu& pc = *per_cpu_[static_cast<std::size_t>(cpu_idx)];
    NicNapiContext ctx;
    ctx.engine = pc.engine.get();
    ctx.transition = pc.transition.get();
    ctx.cost = &cfg_.cost;
    ctx.priority_db = &priority_db_;
    ctx.deliverer = deliverer_.get();
    ctx.root_ns = root_ns_.get();
    ctx.probe = &probe_;
    ctx.faults = &faults_;
    ctx.flow_cache = flow_cache_.get();
    ctx.vxlan_lookup = [this, cpu_idx](std::uint32_t vni) -> QueueNapi* {
      const auto it = bridges_.find(vni);
      return it == bridges_.end() ? nullptr
                                  : &it->second.bridge->cell(cpu_idx);
    };
    auto napi =
        std::make_unique<NicNapi>("eth", nic_->queue(q), std::move(ctx));
    napi->bind_telemetry(telemetry_.registry,
                         "nic.q" + std::to_string(q) + ".");
    NicNapi* napi_ptr = napi.get();
    nic_->queue(q).set_irq_handler([this, cpu_idx, napi_ptr] {
      napi_ptr->note_irq(sim_.now());
      governor_->note_irq();
      if (tracer_ != nullptr) {
        tracer_->instant(track_base_ + cpu_idx, irq_name_, sim_.now());
      }
      PerCpu& target = *per_cpu_[static_cast<std::size_t>(cpu_idx)];
      target.cpu->run_softirq([this, cpu_idx, napi_ptr] {
        per_cpu_[static_cast<std::size_t>(cpu_idx)]->engine->napi_schedule(
            *napi_ptr, false);
        return cfg_.cost.irq_cost;
      });
      (void)target;
    });
    nic_napis_.push_back(std::move(napi));
  }

  // Root namespace egress: straight to the NIC.
  root_ns_->egress = [this](net::PacketBuf frame) {
    nic_->transmit(std::move(frame));
  };

  proc_ = std::make_unique<prism::ProcInterface>(
      priority_db_, [this](NapiMode m) { set_mode(m); },
      [this] { return mode(); });
  proc_->register_file("net/softnet_stat",
                       [this] { return softnet_stat(); });
  proc_->register_file("net/dev", [this] { return net_dev(); });
  proc_->register_file("prism/telemetry", [this] {
    // The attached span tracer and any poll-trace rings report their
    // retention, so truncation is never silent.
    std::vector<telemetry::RingStat> rings;
    for (int i = 0; i < num_cpus(); ++i) {
      if (const auto* t = engine(i).poll_trace(); t != nullptr) {
        rings.push_back({"cpu" + std::to_string(i) + ".poll_trace",
                         static_cast<std::uint64_t>(t->size()),
                         t->dropped_records()});
      }
    }
    return telemetry::telemetry_json(telemetry_, tracer_, rings);
  });
  proc_->register_file("prism/latency", [this] {
    return telemetry::latency_json(telemetry_.latency);
  });
  proc_->register_file("prism/flows", [this] {
    return telemetry::flow_table_json(telemetry_.flows);
  });
  proc_->register_file("prism/faults", [this] {
    return fault::faults_json(faults_);
  });
  proc_->register_file("prism/anomalies", [this] {
    return telemetry::anomalies_json(telemetry_.anomalies,
                                     &telemetry_.recorder);
  });
  proc_->register_file("prism/overload", [this] {
    std::vector<const BacklogAdmission*> admissions;
    admissions.reserve(per_cpu_.size());
    for (const auto& pc : per_cpu_) {
      admissions.push_back(pc->admission.get());
    }
    return overload_json(*governor_, admissions);
  });
}

Host::~Host() = default;

void Host::set_mode(NapiMode mode) {
  for (auto& pc : per_cpu_) pc->engine->set_mode(mode);
  probe_.prism_mode = mode != NapiMode::kVanilla;
  // Vanilla never classifies on the datapath while PRISM modes do, so
  // priorities cached under the old mode are wrong under the new one.
  flow_cache_->invalidate();
}

NapiMode Host::mode() const noexcept {
  return per_cpu_.front()->engine->mode();
}

overlay::Bridge& Host::bridge(std::uint32_t vni) {
  auto it = bridges_.find(vni);
  if (it == bridges_.end()) {
    BridgeBundle bundle;
    bundle.fdb = std::make_unique<overlay::Fdb>();
    // Any FDB mutation (add/remap/remove) voids every cached transform;
    // the flow cache re-resolves through the slow path on next use.
    bundle.fdb->set_mutation_hook([this] { flow_cache_->invalidate(); });
    std::vector<StageTransition*> transitions;
    std::vector<QueueNapi*> backlogs;
    for (auto& pc : per_cpu_) {
      transitions.push_back(pc->transition.get());
      backlogs.push_back(pc->backlog.get());
    }
    bundle.bridge = std::make_unique<overlay::Bridge>(
        vni, cfg_.cost, *bundle.fdb, transitions, backlogs);
    // All of a bridge's per-CPU stages/cells share one prefix so the
    // counters aggregate across CPUs, like a real bridge's device stats.
    const std::string prefix = "overlay.br" + std::to_string(vni) + ".";
    bundle.fdb->bind_telemetry(telemetry_.registry, prefix);
    for (int c = 0; c < cfg_.num_cpus; ++c) {
      bundle.bridge->stage(c).bind_telemetry(telemetry_.registry, prefix);
      bundle.bridge->cell(c).bind_telemetry(telemetry_.registry,
                                            prefix + "cell.");
      bundle.bridge->stage(c).set_probe(&probe_);
      bundle.bridge->stage(c).set_flow_cache(flow_cache_.get(), vni);
      bundle.bridge->cell(c).set_faults(&faults_);
      bundle.bridge->cell(c).set_probe(&probe_, /*stage=*/2);
    }
    if (!cfg_.rps_cpus.empty()) {
      std::vector<overlay::RpsTarget> targets;
      for (const int c : cfg_.rps_cpus) {
        if (c < 0 || c >= cfg_.num_cpus) {
          throw std::invalid_argument("Host: rps_cpus entry out of range");
        }
        PerCpu& pc = *per_cpu_[static_cast<std::size_t>(c)];
        targets.push_back(
            overlay::RpsTarget{pc.transition.get(), pc.backlog.get()});
      }
      for (int c = 0; c < cfg_.num_cpus; ++c) {
        bundle.bridge->stage(c).enable_rps(targets, sim_);
      }
    }
    it = bridges_.emplace(vni, std::move(bundle)).first;
  }
  return *it->second.bridge;
}

overlay::Fdb& Host::fdb(std::uint32_t vni) {
  return *bridges_.at(vni).fdb;
}

overlay::Netns& Host::add_container(const std::string& name,
                                    net::Ipv4Addr ip, std::uint32_t vni) {
  bridge(vni);  // ensure it exists
  const net::MacAddr mac =
      net::MacAddr::make(((cfg_.ip.value & 0xffffu) << 16) | ++mac_counter_);
  auto ns = std::make_unique<overlay::Netns>(name, ip, mac,
                                             /*is_container=*/true);
  ns->set_vni(vni);
  ns->egress = [this, vni](net::PacketBuf frame) {
    container_egress(vni, std::move(frame));
  };
  bridges_.at(vni).fdb->add(mac, *ns);
  containers_.push_back(std::move(ns));
  return *containers_.back();
}

void Host::stop_container(overlay::Netns& ns, sim::Duration drain) {
  if (!ns.is_container() || ns.state() != overlay::NetnsState::kRunning) {
    return;
  }
  // Ordering matters: the namespace stops accepting *before* the FDB
  // unlearns, so no window exists where a fresh lookup can route to a
  // namespace that will refuse the packet without counting it.
  ns.begin_draining();
  // FDB unlearn bumps the generation, which invalidates the flow cache
  // through the mutation hook — stale cached transforms can't deliver.
  fdb(ns.vni()).remove(ns.mac());
  if (drain <= 0) {
    finish_teardown(ns);
    return;
  }
  // The drain deadline is host-local (queued on this host's pair's
  // lane), so it is safe under the parallel lane engine.
  sim_.schedule(drain, [this, &ns] { finish_teardown(ns); });
}

void Host::finish_teardown(overlay::Netns& ns) {
  if (ns.dead()) return;
  ns.mark_dead();
  // Close the bound sockets: queued datagram storage recycles and any
  // still-in-flight enqueue lands as a counted kDeadNetns drop instead of
  // a delivery. The Netns object itself persists as a tombstone, so every
  // stale Netns* (skbs, flow-cache entries, VTEP tables) stays a valid
  // pointer that observes the dead state.
  ns.sockets().close_all_udp();
}

overlay::Netns& Host::restart_container(overlay::Netns& old_ns) {
  if (!old_ns.is_container()) {
    throw std::invalid_argument("Host::restart_container: not a container");
  }
  if (!old_ns.dead()) {
    // A restart races the drain deadline only through a bug in the churn
    // plan; finish the teardown now rather than running two incarnations.
    old_ns.begin_draining();
    finish_teardown(old_ns);
  }
  // The new incarnation reuses the old identity (name, IP, MAC): peers'
  // static ARP entries and remote VTEP routes stay valid, mirroring a
  // container restart that keeps its network attachment.
  return adopt_container(old_ns.name(), old_ns.ip(), old_ns.mac(),
                         old_ns.vni());
}

overlay::Netns& Host::adopt_container(const std::string& name,
                                      net::Ipv4Addr ip, net::MacAddr mac,
                                      std::uint32_t vni) {
  bridge(vni);  // ensure it exists
  auto ns = std::make_unique<overlay::Netns>(name, ip, mac,
                                             /*is_container=*/true);
  ns->set_vni(vni);
  ns->egress = [this, vni](net::PacketBuf frame) {
    container_egress(vni, std::move(frame));
  };
  // Learn (or relearn): the FDB maps the MAC to the new incarnation and
  // the generation bump invalidates any transform cached against an old
  // one.
  bridges_.at(vni).fdb->add(ns->mac(), *ns);
  containers_.push_back(std::move(ns));
  return *containers_.back();
}

void Host::add_overlay_route(std::uint32_t vni, net::MacAddr container_mac,
                             net::Ipv4Addr host_ip,
                             net::MacAddr host_mac) {
  bridge(vni);  // ensure it exists
  bridges_.at(vni).routes[container_mac] =
      BridgeBundle::Vtep{host_ip, host_mac};
  // A route change redirects where a container's traffic goes; cached
  // transforms resolved under the old routing are no longer trustworthy.
  flow_cache_->invalidate();
}

bool Host::remove_overlay_route(std::uint32_t vni,
                                net::MacAddr container_mac) {
  const auto it = bridges_.find(vni);
  if (it == bridges_.end()) return false;
  if (it->second.routes.erase(container_mac) == 0) return false;
  // Route-absent means local bridge delivery in container_egress, so a
  // removal redirects traffic just as an add does.
  flow_cache_->invalidate();
  return true;
}

void Host::container_egress(std::uint32_t vni, net::PacketBuf frame) {
  auto& bundle = bridges_.at(vni);
  const auto bytes = frame.bytes();
  if (bytes.size() < net::EthernetHeader::kSize) {
    return;  // malformed inner frame: dropped by the bridge
  }
  // Only the destination MAC (first six bytes) selects the route; skip
  // the full Ethernet parse.
  net::MacAddr dst_mac;
  std::copy_n(bytes.begin(), dst_mac.bytes.size(), dst_mac.bytes.begin());

  // Local destination: stays on this host's bridge (veth -> br -> veth).
  // The frame enters the bridge's gro_cell on the default RX CPU, going
  // through stages 2 and 3 like any received overlay packet.
  const auto route = bundle.routes.find(dst_mac);
  if (route == bundle.routes.end()) {
    deliver_local(bundle, std::move(frame));
    return;
  }

  // Remote destination: VXLAN-encapsulate and transmit. The outer UDP
  // source port carries inner-flow entropy, as the kernel's vxlan driver
  // computes it.
  const auto& vtep = route->second;
  std::uint16_t entropy = 0xc000;
  if (const auto inner = net::fast_flow(frame.bytes())) {
    entropy = static_cast<std::uint16_t>(
        0xc000 | (std::hash<net::FiveTuple>{}(*inner) & 0x3fff));
  }
  net::FrameSpec outer;
  outer.src_mac = cfg_.mac;
  outer.dst_mac = vtep.host_mac;
  outer.src_ip = cfg_.ip;
  outer.dst_ip = vtep.host_ip;
  outer.src_port = entropy;
  net::vxlan_encapsulate(frame, outer, vni);
  nic_->transmit(std::move(frame));
}

void Host::deliver_local(BridgeBundle& bundle, net::PacketBuf frame) {
  const int cpu_idx = default_rx_cpu();
  PerCpu& pc = *per_cpu_[static_cast<std::size_t>(cpu_idx)];
  auto skb = alloc_skb();
  if (!skb) {
    // Pool exhausted: the local frame is dropped (and its PacketBuf
    // storage recycled by ~PacketBuf), never silently lost.
    probe_.drop(fault::DropReason::kAllocFail, frame.bytes());
    return;
  }
  skb->parsed.emplace();
  if (!net::parse_frame_into(frame.bytes(), *skb->parsed)) {
    skb->parsed.reset();
  }
  const bool prism_mode = pc.engine->mode() != NapiMode::kVanilla;
  if (prism_mode && skb->parsed) {
    // Locally built frames are never VXLAN-encapsulated, so the cached
    // parse is the whole classification input; keep the byte-level
    // classifier for the odd frame that happens to look encapsulated.
    skb->priority = skb->parsed->is_vxlan()
                        ? priority_db_.classify(frame.bytes())
                        : priority_db_.classify(*skb->parsed, nullptr);
  }
  skb->ts.nic_rx = sim_.now();
  skb->ts.stage1_start = sim_.now();
  skb->ts.stage1_done = sim_.now();
  if (skb->parsed) {
    // Local path: no hardware ring, so the arrival carries zero ring wait
    // and the journey starts at the bridge cell.
    probe_.ring_arrival(*skb, *skb->parsed, nullptr, sim_.now(),
                        sim_.now());
  }
  skb->buf = std::move(frame);
  skb->stage = 2;
  if (flow_cache_->enabled()) {
    // Local frames enter at stage 2 and may fill the cache there; stamp
    // the generation their classification (just above) observed.
    skb->flowcache_gen = flow_cache_->generation();
  }
  QueueNapi& cell = bundle.bridge->cell(cpu_idx);
  const bool high = skb->high_priority();
  const int level = skb->priority;
  if (cell.enqueue(std::move(skb), level)) {
    pc.engine->napi_schedule(cell, high);
  }
}

UdpSocket& Host::udp_bind(overlay::Netns& ns, std::uint16_t port,
                          std::size_t capacity) {
  auto sock = std::make_unique<UdpSocket>(sim_, port, capacity);
  sock->bind_telemetry(telemetry_.registry, "sockets.");
  sock->set_probe(&probe_);
  ns.sockets().bind_udp(*sock);
  udp_sockets_.push_back(std::move(sock));
  return *udp_sockets_.back();
}

std::size_t Host::max_udp_payload(
    const overlay::Netns& ns) const noexcept {
  const std::size_t mtu = ns.is_container() ? kOverlayMtu : net::kMtu;
  return mtu - net::Ipv4Header::kSize - net::UdpHeader::kSize;
}

void Host::udp_send(overlay::Netns& ns, Cpu& cpu, std::uint16_t src_port,
                    net::Ipv4Addr dst_ip, std::uint16_t dst_port,
                    std::span<const std::uint8_t> payload,
                    std::function<void()> on_sent) {
  if (payload.size() > max_udp_payload(ns)) {
    throw std::invalid_argument(
        "Host::udp_send: payload exceeds path MTU (UDP fragmentation is "
        "out of scope)");
  }
  sim::Duration cost = cfg_.cost.syscall_cost +
                       cfg_.cost.copy_cost(payload.size()) +
                       cfg_.cost.tx_per_packet;
  if (ns.is_container()) cost += cfg_.cost.tx_overlay_extra;

  // Build the frame up front (the bytes don't depend on the send instant)
  // so the queued work captures one pooled PacketBuf instead of a payload
  // copy, and egress at the completion instant is a pure hand-off.
  const std::optional<net::MacAddr> dst_mac = ns.neighbor(dst_ip);
  net::FrameSpec spec;
  spec.src_mac = ns.mac();
  spec.dst_mac = dst_mac.value_or(net::MacAddr{});
  spec.src_ip = ns.ip();
  spec.dst_ip = dst_ip;
  spec.src_port = src_port;
  spec.dst_port = dst_port;
  net::PacketBuf frame = net::build_udp_frame(spec, payload);

  if (!ns.accepting() || !dst_mac) {
    // The send fails at the source: either the namespace is draining or
    // torn down (kDeadNetns), or there is no neighbour entry for the
    // destination (kUnroutable). Both are counted, per-class, against the
    // built frame's classification, so conservation still closes; the
    // frame's storage recycles through ~PacketBuf. `on_sent` still fires —
    // the syscall completed, the packet just never reached the wire.
    probe_.drop(ns.accepting() ? fault::DropReason::kUnroutable
                               : fault::DropReason::kDeadNetns,
                frame.bytes());
    if (on_sent) on_sent();
    return;
  }

  // Egress is the chunk's completion: it runs at the end instant in the
  // event that dispatches the core's next chunk.
  cpu.run_task_fn([&ns, &cpu, cost, frame = std::move(frame),
                   on_sent = std::move(on_sent)]() mutable {
    cpu.on_chunk_done([&ns, frame = std::move(frame),
                       on_sent = std::move(on_sent)]() mutable {
      ns.egress(std::move(frame));
      if (on_sent) on_sent();
    });
    return cost;
  });
}

void Host::set_span_tracer(telemetry::SpanTracer* tracer, int track_base) {
  tracer_ = tracer;
  track_base_ = track_base;
  if (tracer != nullptr) {
    irq_name_ = tracer->intern("irq");
    for (int i = 0; i < cfg_.num_cpus; ++i) {
      tracer->set_track_label(track_base + i,
                              cfg_.name + ".cpu" + std::to_string(i));
      per_cpu_[static_cast<std::size_t>(i)]->engine->set_span_tracer(
          tracer, track_base + i);
    }
  } else {
    for (auto& pc : per_cpu_) pc->engine->set_span_tracer(nullptr, 0);
  }
}

std::vector<telemetry::SoftnetRow> Host::softnet_rows() {
  std::vector<telemetry::SoftnetRow> rows;
  rows.reserve(per_cpu_.size());
  for (int i = 0; i < cfg_.num_cpus; ++i) {
    const PerCpu& pc = *per_cpu_[static_cast<std::size_t>(i)];
    telemetry::SoftnetRow row;
    row.cpu = static_cast<std::uint32_t>(i);
    row.processed = pc.engine->packets_processed();
    row.dropped = pc.backlog->low_dropped() + pc.backlog->high_dropped();
    row.time_squeeze = pc.engine->time_squeezes();
    // RPS steering is counted at the sending bridge stage, which is not
    // per-receiving-CPU attributable; the column stays 0 as on hosts
    // without RPS configured.
    row.received_rps = 0;
    row.backlog_len = pc.backlog->pending_total();
    row.flow_limit = pc.admission->flow_limit_count();
    rows.push_back(row);
  }
  return rows;
}

std::vector<telemetry::NetDevRow> Host::net_dev_rows() {
  std::vector<telemetry::NetDevRow> rows;
  rows.push_back(telemetry::NetDevRow{"eth0", nic_->rx_frames(),
                                      nic_->rx_dropped(),
                                      nic_->tx_frames()});
  for (auto& [vni, bundle] : bridges_) {
    telemetry::NetDevRow row;
    row.name = "br" + std::to_string(vni);
    for (int c = 0; c < cfg_.num_cpus; ++c) {
      overlay::BridgeStage& stage = bundle.bridge->stage(c);
      row.rx_packets += stage.forwarded() + stage.dropped();
      row.rx_dropped += stage.dropped();
    }
    rows.push_back(std::move(row));
  }
  telemetry::NetDevRow veth;
  veth.name = "veth";
  for (auto& pc : per_cpu_) {
    veth.rx_packets += pc->backlog_stage->delivered();
    veth.rx_dropped += pc->backlog_stage->dropped() +
                       pc->backlog->low_dropped() +
                       pc->backlog->high_dropped();
  }
  rows.push_back(std::move(veth));
  return rows;
}

std::string Host::softnet_stat() {
  return telemetry::render_softnet_stat(softnet_rows());
}

std::string Host::net_dev() {
  return telemetry::render_net_dev(net_dev_rows());
}

TcpEndpoint& Host::tcp_create(overlay::Netns& ns, net::Ipv4Addr remote_ip,
                              std::uint16_t local_port,
                              std::uint16_t remote_port, std::size_t mss) {
  TcpEndpoint::Config cfg;
  cfg.ns = &ns;
  cfg.local_ip = ns.ip();
  cfg.remote_ip = remote_ip;
  cfg.local_port = local_port;
  cfg.remote_port = remote_port;
  if (mss == 0) {
    const std::size_t mtu = ns.is_container() ? kOverlayMtu : net::kMtu;
    cfg.mss = mtu - net::Ipv4Header::kSize - net::TcpHeader::kSize;
  } else {
    cfg.mss = mss;
  }
  auto ep = std::make_unique<TcpEndpoint>(sim_, cfg_.cost, cfg);
  ns.sockets().register_tcp(ep->incoming_flow(), *ep);
  tcp_endpoints_.push_back(std::move(ep));
  return *tcp_endpoints_.back();
}

}  // namespace prism::kernel
