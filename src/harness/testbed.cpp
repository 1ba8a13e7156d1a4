#include "harness/testbed.h"

namespace prism::harness {

namespace {

int g_default_threads = 1;

kernel::HostConfig client_config(const TestbedConfig& cfg) {
  kernel::HostConfig h;
  h.name = "client";
  h.ip = net::Ipv4Addr::of(10, 0, 0, 1);
  h.num_cpus = cfg.client_cpus;
  h.nic_queues = cfg.client_queues;
  h.mode = cfg.mode;
  h.cost = cfg.cost;
  h.nic_ring_capacity = cfg.nic_ring_capacity;
  h.coalesce = cfg.coalesce;
  h.flow_cache = cfg.flow_cache;
  return h;
}

kernel::HostConfig server_config(const TestbedConfig& cfg) {
  kernel::HostConfig h;
  h.name = "server";
  h.ip = net::Ipv4Addr::of(10, 0, 0, 2);
  h.num_cpus = cfg.server_cpus;
  h.nic_queues = 1;  // all network processing on one core (paper §V-A)
  h.queue_cpu_map = {0};
  h.rps_cpus = cfg.server_rps_cpus;
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

int resolve_threads(int configured) {
  int t = configured == 0 ? g_default_threads : configured;
  return t < 1 ? 1 : t;
}

}  // namespace

void set_default_threads(int threads) {
  g_default_threads = threads < 1 ? 1 : threads;
}

Testbed::Testbed(const TestbedConfig& config)
    : threads_(resolve_threads(config.threads)),
      client_(client_sim(), client_config(config)),
      server_(server_sim(), server_config(config)),
      wire_(lanes_, 0, 1, config.wire_gbps, config.propagation),
      overlay_(config.vni) {
  wire_.attach(client_.nic(), server_.nic());
  client_.nic().attach_wire(wire_);
  server_.nic().attach_wire(wire_);
  client_.add_neighbor(server_.ip(), server_.mac());
  server_.add_neighbor(client_.ip(), client_.mac());
}

void Testbed::run_until(sim::Time deadline) {
  lanes_.run_until(deadline, tracer_shared_ ? 1 : threads_);
}

overlay::Netns& Testbed::add_client_container(const std::string& name) {
  return overlay_.add_container(
      client_, name, net::Ipv4Addr::of(172, 17, 0, next_container_ip_++));
}

overlay::Netns& Testbed::add_server_container(const std::string& name) {
  return overlay_.add_container(
      server_, name, net::Ipv4Addr::of(172, 17, 0, next_container_ip_++));
}

void Testbed::set_mode(kernel::NapiMode mode) {
  client_.set_mode(mode);
  server_.set_mode(mode);
}

}  // namespace prism::harness
