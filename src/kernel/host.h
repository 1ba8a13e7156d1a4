// A simulated machine: CPUs, NIC, kernel stack, namespaces, containers.
//
// Host is the assembly point of the reproduction: it owns the per-CPU
// softirq machinery (engine + stage transitions + backlog), the NIC's RSS
// queues and their stage-1 NAPIs, the overlay bridges, the container
// namespaces with their VXLAN egress, and PRISM's priority database and
// proc control interface. The testbed harness creates two of these and
// connects them with a Wire, mirroring the paper's two-machine setup.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "kernel/cost_model.h"
#include "kernel/cpu.h"
#include "kernel/napi.h"
#include "kernel/net_rx_engine.h"
#include "kernel/nic_napi.h"
#include "kernel/overload.h"
#include "kernel/probe.h"
#include "kernel/protocol.h"
#include "kernel/socket.h"
#include "kernel/softnet.h"
#include "kernel/stage_transition.h"
#include "kernel/tcp.h"
#include "net/ip.h"
#include "net/mac.h"
#include "nic/nic.h"
#include "overlay/bridge.h"
#include "overlay/flow_cache.h"
#include "overlay/netns.h"
#include "prism/priority_db.h"
#include "prism/proc_interface.h"
#include "sim/simulator.h"
#include "telemetry/snapshot.h"
#include "telemetry/telemetry.h"

namespace prism::kernel {

/// Static configuration of one host.
struct HostConfig {
  std::string name = "host";
  net::Ipv4Addr ip;
  net::MacAddr mac;  ///< zero -> derived from ip
  int num_cpus = 4;
  /// NIC RSS queues. The paper's server directs all network processing to
  /// a single core (one queue -> CPU 0); the client spreads flows.
  int nic_queues = 1;
  /// queue i -> CPU. Empty: queue i handled by CPU i % num_cpus.
  std::vector<int> queue_cpu_map;
  /// Receive Packet Steering at the bridge->veth (netif_rx) boundary:
  /// flows hash across these CPUs. Empty (default, and the paper's
  /// single-core server setup) keeps each packet on its RX CPU.
  std::vector<int> rps_cpus;
  NapiMode mode = NapiMode::kVanilla;
  CostModel cost;
  std::size_t nic_ring_capacity = 4096;
  /// NIC interrupt moderation (default off; the testbed enables it to
  /// match the ConnectX-5's adaptive behaviour).
  nic::CoalesceConfig coalesce;
  /// Fault injection (default: all rates zero, i.e. inactive). The drop
  /// ledger accounts natural drops even when no fault is armed.
  fault::FaultConfig faults;
  /// Per-queue backlog limit (the kernel's netdev_max_backlog sysctl,
  /// default 1000). Applied to every per-CPU backlog napi.
  std::size_t netdev_max_backlog = 1000;
  /// Overload control: flow_limit admission, watermarks, watchdog,
  /// ksoftirqd deferral (kernel/overload.h).
  OverloadConfig overload;
  /// Overlay flow cache (ONCache-style stage-1 fast path,
  /// overlay/flow_cache.h): opt-in per host.
  bool flow_cache = false;
  /// Flows the cache retains (LRU eviction beyond this); 0 selects
  /// overlay::FlowCache::kDefaultCapacity.
  std::size_t flow_cache_capacity = 0;
};

/// One simulated machine.
class Host {
 public:
  Host(sim::Simulator& sim, HostConfig config);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // ------------------------------------------------------------ identity
  const std::string& name() const noexcept { return cfg_.name; }
  net::Ipv4Addr ip() const noexcept { return cfg_.ip; }
  net::MacAddr mac() const noexcept { return cfg_.mac; }
  const CostModel& cost() const noexcept { return cfg_.cost; }

  // ------------------------------------------------------------ hardware
  nic::Nic& nic() noexcept { return *nic_; }
  Cpu& cpu(int i) { return *per_cpu_[static_cast<std::size_t>(i)]->cpu; }
  int num_cpus() const noexcept { return cfg_.num_cpus; }
  NetRxEngine& engine(int i) {
    return *per_cpu_[static_cast<std::size_t>(i)]->engine;
  }
  /// CPU that queue 0 interrupts — the paper's "packet processing core".
  int default_rx_cpu() const noexcept { return queue_cpu_map_[0]; }

  // --------------------------------------------------------------- faults
  /// The host's fault layer: the seeded injection plan plus the drop
  /// ledger every drop path reports into (proc: "prism/faults").
  fault::FaultLayer& faults() noexcept { return faults_; }
  const fault::FaultLayer& faults() const noexcept { return faults_; }
  /// Re-arms the fault plan (reseeds the RNG, zeroes injection counters).
  void configure_faults(const fault::FaultConfig& cfg) {
    faults_.plan.configure(cfg);
  }

  // ------------------------------------------------------------- overload
  /// The host's overload governor (state machine + livelock watchdog;
  /// proc: "prism/overload").
  OverloadGovernor& governor() noexcept { return *governor_; }
  const OverloadGovernor& governor() const noexcept { return *governor_; }
  /// The admission policy of CPU i's backlog (flow_limit / shed counts).
  const BacklogAdmission& admission(int i) const {
    return *per_cpu_[static_cast<std::size_t>(i)]->admission;
  }

  // ----------------------------------------------------------- flow cache
  /// The per-host overlay flow cache. Always constructed (so counters and
  /// tests have a stable surface); the datapath consults it only when
  /// HostConfig::flow_cache enabled it.
  overlay::FlowCache& flow_cache() noexcept { return *flow_cache_; }
  const overlay::FlowCache& flow_cache() const noexcept {
    return *flow_cache_;
  }

  // --------------------------------------------------------------- PRISM
  prism::PriorityDb& priority_db() noexcept { return priority_db_; }
  prism::ProcInterface& proc() noexcept { return *proc_; }
  /// Switches every CPU's engine; all must be idle.
  void set_mode(NapiMode mode);
  NapiMode mode() const noexcept;

  // ---------------------------------------------------------- namespaces
  overlay::Netns& root_ns() noexcept { return *root_ns_; }

  /// Creates (or returns) the overlay bridge for `vni`.
  overlay::Bridge& bridge(std::uint32_t vni);

  /// The `vni` bridge's forwarding database. Reading it creates
  /// nothing: an unknown VNI throws std::out_of_range. Mutations through
  /// it — add, remap, remove — bump the flow cache's generation via the
  /// installed hook, so cached transforms resolved under the old table
  /// are never replayed.
  overlay::Fdb& fdb(std::uint32_t vni);

  /// Creates a container attached to the `vni` bridge. The container MAC
  /// is auto-assigned; the FDB entry is installed.
  overlay::Netns& add_container(const std::string& name, net::Ipv4Addr ip,
                                std::uint32_t vni);

  /// Begins container teardown: the namespace enters Draining (new
  /// deliveries drop as counted kDeadNetns, sends are refused), the FDB
  /// unlearns its MAC (bumping the flow-cache generation), and after
  /// `drain` the namespace goes Dead — bound sockets close, queued
  /// datagram storage recycles. The Netns object is retained as a
  /// tombstone so stale pointers observe the state instead of dangling.
  /// No-op for the root namespace or an already-stopped container.
  void stop_container(overlay::Netns& ns, sim::Duration drain = 0);

  /// Creates a fresh incarnation of a torn-down container, reusing its
  /// name/IP/MAC (peers' ARP entries and remote VTEP routes stay valid)
  /// and relearning the FDB entry. `old_ns` must be a container; if its
  /// drain hasn't finished the teardown is completed first. Prefer
  /// OverlayNetwork::restart_container, which also re-wires neighbours.
  overlay::Netns& restart_container(overlay::Netns& old_ns);

  /// Creates a container with an explicit identity (used by container
  /// migration, where the incarnation on the destination host must keep
  /// the source's IP and MAC). The FDB entry is installed; neighbour
  /// wiring is the caller's job.
  overlay::Netns& adopt_container(const std::string& name,
                                  net::Ipv4Addr ip, net::MacAddr mac,
                                  std::uint32_t vni);

  /// Declares that container `mac` of overlay `vni` lives behind the
  /// remote VTEP (`host_ip`, `host_mac`): the container egress
  /// encapsulates frames for it accordingly.
  void add_overlay_route(std::uint32_t vni, net::MacAddr container_mac,
                         net::Ipv4Addr host_ip, net::MacAddr host_mac);

  /// Withdraws a VTEP route (e.g. the container migrated onto this host):
  /// its traffic falls back to local bridge delivery. Returns false when
  /// no such route existed. Invalidates the flow cache on change.
  bool remove_overlay_route(std::uint32_t vni, net::MacAddr container_mac);

  /// Static ARP entry for the root namespace's L2 domain.
  void add_neighbor(net::Ipv4Addr ip, net::MacAddr mac) {
    root_ns_->add_neighbor(ip, mac);
  }

  // -------------------------------------------------------------- sockets
  /// Binds a UDP socket (owned by the host) in `ns`.
  UdpSocket& udp_bind(overlay::Netns& ns, std::uint16_t port,
                      std::size_t capacity = 4096);

  /// Sends one UDP datagram from `ns`, charging syscall/copy/egress costs
  /// to `cpu`. `on_sent` (optional) fires when the send syscall
  /// completes. The payload is copied into the frame before this call
  /// returns, so the caller's buffer may be reused immediately. Throws
  /// std::invalid_argument if the payload exceeds the path MTU (UDP
  /// fragmentation is out of scope; see DESIGN.md).
  void udp_send(overlay::Netns& ns, Cpu& cpu, std::uint16_t src_port,
                net::Ipv4Addr dst_ip, std::uint16_t dst_port,
                std::span<const std::uint8_t> payload,
                std::function<void()> on_sent = {});

  /// Creates (and registers) an established-TCP endpoint in `ns`.
  /// `mss == 0` selects the path default (1400 for containers, 1448 for
  /// the host path).
  TcpEndpoint& tcp_create(overlay::Netns& ns, net::Ipv4Addr remote_ip,
                          std::uint16_t local_port,
                          std::uint16_t remote_port, std::size_t mss = 0);

  /// Maximum UDP payload for sockets in `ns`.
  std::size_t max_udp_payload(const overlay::Netns& ns) const noexcept;

  // ---------------------------------------------------------- telemetry
  SocketDeliverer& deliverer() noexcept { return *deliverer_; }
  void set_poll_trace(int cpu, trace::PollTrace* trace) {
    engine(cpu).set_poll_trace(trace);
  }
  NicNapi& nic_napi(int queue) {
    return *nic_napis_[static_cast<std::size_t>(queue)];
  }

  /// The host's metrics registry and packet-journey consumers. Every
  /// component's counters are registered at construction under stable
  /// prefixes ("nic.q0.", "cpu0.", "overlay.br<vni>.", "sockets."); the
  /// registry reads the components' own members.
  telemetry::Telemetry& telemetry() noexcept { return telemetry_; }
  telemetry::Registry& metrics() noexcept { return telemetry_.registry; }

  /// Per-stage latency attribution ledger (proc: "prism/latency"). Fed
  /// by the packet probe on every completed journey.
  telemetry::LatencyLedger& latency_ledger() noexcept {
    return telemetry_.latency;
  }
  /// Bounded per-flow accounting table (proc: "prism/flows").
  telemetry::FlowTable& flow_table() noexcept { return telemetry_.flows; }

  /// Flow-path flight recorder: sampled per-packet lifecycle rings fed
  /// by the packet probe at every journey point (armed by default at
  /// 1-in-64 sampling with high classes pinned).
  telemetry::FlightRecorder& flight_recorder() noexcept {
    return telemetry_.recorder;
  }
  /// Streaming anomaly detectors (proc: "prism/anomalies"). Inversion
  /// detection is armed by default; SLO/drop-burst/flap detectors arm
  /// via anomalies().arm(config).
  telemetry::AnomalyBank& anomalies() noexcept {
    return telemetry_.anomalies;
  }

  /// Attaches a span tracer to every CPU's engine and the NIC IRQ lines.
  /// CPU i records on track `track_base + i` (labelled "<host>.cpu<i>");
  /// pass distinct bases when two hosts share one tracer. nullptr
  /// detaches.
  void set_span_tracer(telemetry::SpanTracer* tracer, int track_base = 0);

  /// Per-CPU softnet_stat rows assembled from live component counters.
  std::vector<telemetry::SoftnetRow> softnet_rows();
  /// Per-device rx/tx rows (eth, per-VNI bridge, veth aggregate).
  std::vector<telemetry::NetDevRow> net_dev_rows();
  /// /proc/net/softnet_stat rendering (also readable via
  /// proc().read("net/softnet_stat")).
  std::string softnet_stat();
  /// /proc/net/dev-like rendering (proc().read("net/dev")).
  std::string net_dev();

 private:
  struct PerCpu {
    std::unique_ptr<Cpu> cpu;
    std::unique_ptr<NetRxEngine> engine;
    std::unique_ptr<StageTransition> transition;
    std::unique_ptr<BacklogStage> backlog_stage;
    std::unique_ptr<QueueNapi> backlog;
    std::unique_ptr<BacklogAdmission> admission;
  };

  struct BridgeBundle {
    std::unique_ptr<overlay::Fdb> fdb;
    std::unique_ptr<overlay::Bridge> bridge;
    /// Remote containers: MAC -> VTEP endpoint.
    struct Vtep {
      net::Ipv4Addr host_ip;
      net::MacAddr host_mac;
    };
    std::map<net::MacAddr, Vtep> routes;
  };

  void container_egress(std::uint32_t vni, net::PacketBuf frame);
  void deliver_local(BridgeBundle& bundle, net::PacketBuf frame);
  void finish_teardown(overlay::Netns& ns);

  sim::Simulator& sim_;
  HostConfig cfg_;
  /// Declared before every component so the registry (whose counters the
  /// components hold resolved pointers into) outlives them on teardown.
  telemetry::Telemetry telemetry_;
  /// Declared right after the telemetry (its counters live in the
  /// registry) and before every pipeline component that holds a pointer
  /// into it, so it outlives them all on teardown.
  fault::FaultLayer faults_;
  /// The one hook every datapath site reports to; fans out to the drop
  /// ledger and the telemetry consumers. Declared before every component
  /// that holds a pointer to it.
  PacketProbe probe_;
  /// Declared before the NIC and the per-CPU machinery: their IRQ
  /// handlers and engines hold a pointer into it, so it must outlive them
  /// on teardown.
  std::unique_ptr<OverloadGovernor> governor_;
  /// Declared before the NIC NAPIs and bridges, which hold a pointer into
  /// it, so it outlives them on teardown.
  std::unique_ptr<overlay::FlowCache> flow_cache_;
  telemetry::SpanTracer* tracer_ = nullptr;
  int track_base_ = 0;
  telemetry::SpanTracer::NameId irq_name_ = 0;
  std::vector<int> queue_cpu_map_;
  std::unique_ptr<nic::Nic> nic_;
  std::vector<std::unique_ptr<PerCpu>> per_cpu_;
  std::unique_ptr<SocketDeliverer> deliverer_;
  std::vector<std::unique_ptr<NicNapi>> nic_napis_;
  std::unique_ptr<overlay::Netns> root_ns_;
  std::map<std::uint32_t, BridgeBundle> bridges_;
  std::vector<std::unique_ptr<overlay::Netns>> containers_;
  std::vector<std::unique_ptr<UdpSocket>> udp_sockets_;
  std::vector<std::unique_ptr<TcpEndpoint>> tcp_endpoints_;
  prism::PriorityDb priority_db_;
  std::unique_ptr<prism::ProcInterface> proc_;
  std::uint32_t mac_counter_ = 0;
};

}  // namespace prism::kernel
