#include "harness/cluster.h"

#include <stdexcept>

#include "sim/lane_profiler.h"
#include "telemetry/json_writer.h"
#include "telemetry/latency.h"
#include "telemetry/rollup.h"

namespace prism::harness {

namespace {

kernel::HostConfig pair_client_config(const ClusterConfig& cfg, int pair) {
  kernel::HostConfig h;
  h.name = "client" + std::to_string(pair);
  h.ip = net::Ipv4Addr::of(10, 0, static_cast<std::uint8_t>(pair), 1);
  h.num_cpus = cfg.client_cpus;
  h.nic_queues = cfg.client_queues;
  h.mode = cfg.mode;
  h.cost = cfg.cost;
  h.nic_ring_capacity = cfg.nic_ring_capacity;
  h.coalesce = cfg.coalesce;
  h.flow_cache = cfg.flow_cache;
  return h;
}

kernel::HostConfig pair_server_config(const ClusterConfig& cfg, int pair) {
  kernel::HostConfig h;
  h.name = "server" + std::to_string(pair);
  h.ip = net::Ipv4Addr::of(10, 0, static_cast<std::uint8_t>(pair), 2);
  h.num_cpus = cfg.server_cpus;
  h.nic_queues = 1;  // all network processing on one core, as in the paper
  h.queue_cpu_map = {0};
  h.mode = cfg.mode;
  h.cost = cfg.cost;
  h.nic_ring_capacity = cfg.nic_ring_capacity;
  h.coalesce = cfg.coalesce;
  h.faults = cfg.server_faults;
  h.netdev_max_backlog = cfg.server_netdev_max_backlog;
  h.overload = cfg.server_overload;
  h.flow_cache = cfg.flow_cache;
  return h;
}

/// `pairs`, once it is known to be in [1, 127]: the third address
/// octet and the container subnet carry the pair number.
int checked_pairs(int pairs) {
  if (pairs < 1 || pairs > 127) {
    throw std::invalid_argument("Cluster: pairs must be in [1, 127]");
  }
  return pairs;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : lanes_(checked_pairs(config.pairs)) {
  pairs_.reserve(static_cast<std::size_t>(config.pairs));
  for (int p = 0; p < config.pairs; ++p) {
    Pair pair;
    pair.client = std::make_unique<kernel::Host>(
        lanes_.lane(p), pair_client_config(config, p));
    pair.server = std::make_unique<kernel::Host>(
        lanes_.lane(p), pair_server_config(config, p));
    pair.wire = std::make_unique<nic::Wire>(
        lanes_.lane(p), config.wire_gbps, config.propagation);
    pair.overlay = std::make_unique<overlay::OverlayNetwork>(
        42 + static_cast<std::uint32_t>(p));
    pair.wire->attach(pair.client->nic(), pair.server->nic());
    pair.client->nic().attach_wire(*pair.wire);
    pair.server->nic().attach_wire(*pair.wire);
    pair.client->add_neighbor(pair.server->ip(), pair.server->mac());
    pair.server->add_neighbor(pair.client->ip(), pair.client->mac());
    pairs_.push_back(std::move(pair));
  }
}

Cluster::~Cluster() {
  // The engine borrows the profiler; detach before it is destroyed.
  lanes_.set_profiler(nullptr);
}

sim::LaneProfiler& Cluster::enable_lane_profiler() {
  if (!profiler_) {
    profiler_ = std::make_unique<sim::LaneProfiler>();
    lanes_.set_profiler(profiler_.get());
  }
  return *profiler_;
}

void Cluster::export_lane_trace(telemetry::SpanTracer& tracer) const {
  if (profiler_) telemetry::export_lane_trace(*profiler_, tracer);
}

std::string Cluster::proc_read(std::string_view path) {
  if (path == "prism/lanes") return telemetry::lanes_json(profiler_.get());
  if (path == "prism/cluster") return cluster_json();
  if (path == "prism/telemetry/index") {
    std::string out;
    for (const std::string& p : proc_paths()) {
      out += p;
      out += '\n';
    }
    return out;
  }
  return "";
}

std::vector<std::string> Cluster::proc_paths() const {
  return {"prism/cluster", "prism/lanes", "prism/telemetry/index"};
}

std::string Cluster::cluster_json() {
  telemetry::JsonWriter w;
  w.begin_object();
  w.member("pairs", static_cast<std::int64_t>(pairs()));
  w.member("hosts", static_cast<std::int64_t>(num_hosts()));

  std::vector<const telemetry::Registry*> regs;
  std::vector<const telemetry::LatencyLedger*> ledgers;
  std::vector<const telemetry::AnomalyBank*> banks;
  regs.reserve(static_cast<std::size_t>(num_hosts()));
  ledgers.reserve(static_cast<std::size_t>(num_hosts()));
  banks.reserve(static_cast<std::size_t>(num_hosts()));
  for (Pair& p : pairs_) {
    regs.push_back(&p.client->metrics());
    regs.push_back(&p.server->metrics());
    ledgers.push_back(&p.client->latency_ledger());
    ledgers.push_back(&p.server->latency_ledger());
    banks.push_back(&p.client->anomalies());
    banks.push_back(&p.server->anomalies());
  }
  w.key("registry");
  telemetry::write_merged_registry_json(w, regs);
  w.key("latency");
  telemetry::write_merged_latency_json(w, ledgers);
  w.key("anomalies");
  telemetry::write_merged_anomalies_json(w, banks);

  w.key("pair_summaries").begin_array();
  for (int i = 0; i < pairs(); ++i) {
    Pair& p = pairs_[static_cast<std::size_t>(i)];
    w.begin_object();
    w.member("pair", static_cast<std::int64_t>(i));
    w.member("client", p.client->name());
    w.member("server", p.server->name());
    // Both endpoints' ledgers summed: the pair's whole loss budget.
    w.key("drops").begin_object();
    std::uint64_t total = 0;
    for (int r = 0; r < fault::kNumDropReasons; ++r) {
      total += p.client->faults().drops.total(
                   static_cast<fault::DropReason>(r)) +
               p.server->faults().drops.total(
                   static_cast<fault::DropReason>(r));
    }
    w.member("total", total);
    w.key("by_reason").begin_object();
    for (int r = 0; r < fault::kNumDropReasons; ++r) {
      const auto reason = static_cast<fault::DropReason>(r);
      const std::uint64_t n = p.client->faults().drops.total(reason) +
                              p.server->faults().drops.total(reason);
      if (n != 0) w.member(fault::drop_reason_name(reason), n);
    }
    w.end_object();
    w.key("by_class").begin_array();
    for (int c = 0; c < fault::kNumFaultClasses; ++c) {
      w.value(p.client->faults().drops.class_total(c) +
              p.server->faults().drops.class_total(c));
    }
    w.end_array();
    w.end_object();
    // The server is the loaded end (clients spread flows over all
    // cores); its governor is the pair's overload story.
    const kernel::OverloadGovernor& gov = p.server->governor();
    w.key("overload")
        .begin_object()
        .member("state", kernel::to_string(gov.state()))
        .member("entries", gov.entries())
        .member("exits", gov.exits())
        .member("livelocks", gov.livelocks())
        .end_object();
    w.end_object();
  }
  w.end_array();

  w.key("engine")
      .begin_object()
      .member("lanes", static_cast<std::int64_t>(lanes_.num_lanes()))
      .end_object();
  w.key("lanes");
  telemetry::write_lanes_json(w, profiler_.get());
  w.end_object();
  return w.take();
}

overlay::Netns& Cluster::add_client_container(int pair,
                                              const std::string& name) {
  Pair& p = pairs_.at(static_cast<std::size_t>(pair));
  return p.overlay->add_container(
      *p.client, name,
      net::Ipv4Addr::of(172, 17, static_cast<std::uint8_t>(pair),
                        p.next_container_ip++));
}

overlay::Netns& Cluster::add_server_container(int pair,
                                              const std::string& name) {
  Pair& p = pairs_.at(static_cast<std::size_t>(pair));
  return p.overlay->add_container(
      *p.server, name,
      net::Ipv4Addr::of(172, 17, static_cast<std::uint8_t>(pair),
                        p.next_container_ip++));
}

}  // namespace prism::harness
