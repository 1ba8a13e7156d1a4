#include "workloads.h"

#include <algorithm>
#include <bit>
#include <string_view>
#include <thread>

#include "apps/http_server.h"
#include "apps/sockperf.h"
#include "fault/fault.h"
#include "harness/cluster.h"
#include "harness/testbed.h"
#include "kernel/skb_pool.h"
#include "sim/lane_profiler.h"
#include "sim/pool.h"
#include "telemetry/latency.h"
#include "telemetry/span_tracer.h"

namespace perfbench {

using namespace prism;

namespace {

constexpr std::uint16_t kProbePort = 11111;
constexpr std::uint16_t kBulkPort = 11112;
constexpr std::uint16_t kProbeSrcPort = 20000;
constexpr std::uint16_t kBulkSrcBase = 21000;
constexpr std::uint16_t kWebPort = 80;
constexpr std::uint16_t kWebSrcPort = 40000;
constexpr std::uint16_t kTcpBulkPort = 5201;
constexpr std::uint16_t kTcpBulkSrcPort = 41000;

constexpr std::size_t kUdpPayload = 64;
constexpr std::size_t kTcpBulkMessage = 64 * 1024;
constexpr int kClusterPairs = 4;

/// Per-generator seed: the run seed mixed with the generator's index
/// (splitmix64), so every flow's pacing jitter is an independent stream.
std::uint64_t flow_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}
bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::kUdpOverlay, Workload::kTcpWebVanilla,
                     Workload::kClusterLanes}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kUdpOverlay: return "udp_overlay";
    case Workload::kTcpWebVanilla: return "tcp_web_vanilla";
    case Workload::kClusterLanes: return "cluster_lanes";
  }
  return "?";
}

Phases phases_of(Workload w) {
  Phases p;
  const sim::Duration drain = sim::milliseconds(20);
  switch (w) {
    case Workload::kUdpOverlay:
      // 1.1 s of 1 kpps probes: >= 1,000 latency samples per run.
      p.warmup_end = sim::milliseconds(100);
      p.window_end = p.warmup_end + sim::milliseconds(1100);
      p.bulk_payload = kUdpPayload;
      p.bulk_frame_payload = kUdpPayload;
      p.window_slices = 11;
      break;
    case Workload::kTcpWebVanilla:
      // 20k req/s for 200 ms: 4,000 samples.
      p.warmup_end = sim::milliseconds(50);
      p.window_end = p.warmup_end + sim::milliseconds(200);
      p.bulk_payload = kTcpBulkMessage;
      p.bulk_frame_payload = 1400;  // container-path MSS
      p.tcp = true;
      p.window_slices = 4;
      break;
    case Workload::kClusterLanes:
      // Four pairs x 1 kpps for 300 ms: 1,200 samples.
      p.warmup_end = sim::milliseconds(50);
      p.window_end = p.warmup_end + sim::milliseconds(300);
      p.bulk_payload = kUdpPayload;
      p.bulk_frame_payload = kUdpPayload;
      p.window_slices = 6;
      break;
  }
  p.drain_end = p.window_end + drain;
  return p;
}

Counts delta(const Counts& a, const Counts& b) {
  Counts d = b;
#define PERFBENCH_DELTA(f) d.f = b.f - a.f
  PERFBENCH_DELTA(events);
  PERFBENCH_DELTA(lane_windows);
  PERFBENCH_DELTA(lane_msgs);
  PERFBENCH_DELTA(lane_spills);
  PERFBENCH_DELTA(app_pkts);
  PERFBENCH_DELTA(bulk_bytes);
  PERFBENCH_DELTA(sock_delivered);
  PERFBENCH_DELTA(nic_tx);
  PERFBENCH_DELTA(nic_rx);
  PERFBENCH_DELTA(ring_drops);
  PERFBENCH_DELTA(irqs);
  PERFBENCH_DELTA(gro_merged);
  PERFBENCH_DELTA(polls);
  PERFBENCH_DELTA(poll_pkts);
  PERFBENCH_DELTA(softirqs);
  PERFBENCH_DELTA(time_squeeze);
  PERFBENCH_DELTA(requeues);
  PERFBENCH_DELTA(head_inserts);
  PERFBENCH_DELTA(backlog_enq);
  PERFBENCH_DELTA(bridge_fwd);
  PERFBENCH_DELTA(cell_enq);
  PERFBENCH_DELTA(fdb_drops);
  PERFBENCH_DELTA(fc_hits);
  PERFBENCH_DELTA(fc_misses);
  PERFBENCH_DELTA(fc_invalidations);
  PERFBENCH_DELTA(flight_events);
  PERFBENCH_DELTA(ledger_deliveries);
  PERFBENCH_DELTA(acks);
  PERFBENCH_DELTA(tcp_retransmissions);
  PERFBENCH_DELTA(app_msgs);
  PERFBENCH_DELTA(gen_sent);
  PERFBENCH_DELTA(gen_skipped);
  PERFBENCH_DELTA(rcvbuf_drops);
  PERFBENCH_DELTA(skb_allocs);
  PERFBENCH_DELTA(buf_allocs);
#undef PERFBENCH_DELTA
  return d;
}

struct Scenario::Pair {
  kernel::Host* client = nullptr;
  kernel::Host* server = nullptr;
  sim::Simulator* client_sim = nullptr;
  sim::Simulator* server_sim = nullptr;
  // UDP workloads.
  std::unique_ptr<apps::SockperfServer> probe_server;
  std::unique_ptr<apps::SockperfServer> bulk_server;
  std::unique_ptr<apps::SockperfClient> probe;
  std::unique_ptr<apps::SockperfClient> bulk;
  // TCP workload.
  std::vector<kernel::TcpEndpoint*> endpoints;
  std::unique_ptr<apps::HttpServer> http;
  std::unique_ptr<apps::Wrk2Client> wrk;
  std::unique_ptr<apps::SockperfTcpSender> sender;
  std::unique_ptr<apps::TcpSinkServer> sink;
};

Scenario::Scenario(Workload w, const Options& opt)
    : opt_(opt), phases_(phases_of(w)) {
  if (w == Workload::kClusterLanes) {
    harness::ClusterConfig cc;
    cc.pairs = kClusterPairs;
    cc.mode = kernel::NapiMode::kPrismSync;
    cc.flow_cache = true;
    cluster_ = std::make_unique<harness::Cluster>(cc);
    if (opt.lane_profiler) cluster_->enable_lane_profiler();
    for (int i = 0; i < kClusterPairs; ++i) {
      auto p = std::make_unique<Pair>();
      p->client = &cluster_->client(i);
      p->server = &cluster_->server(i);
      p->client_sim = &cluster_->client_sim(i);
      p->server_sim = &cluster_->server_sim(i);
      pairs_.push_back(std::move(p));
    }
  } else {
    harness::TestbedConfig tc;
    tc.mode = w == Workload::kUdpOverlay ? kernel::NapiMode::kPrismSync
                                         : kernel::NapiMode::kVanilla;
    tc.threads = 1;
    testbed_ = std::make_unique<harness::Testbed>(tc);
    auto p = std::make_unique<Pair>();
    p->client = &testbed_->client();
    p->server = &testbed_->server();
    p->client_sim = &testbed_->client_sim();
    p->server_sim = &testbed_->server_sim();
    pairs_.push_back(std::move(p));
  }

  if (!opt.telemetry) {
    for (kernel::Host* h : hosts()) {
      h->latency_ledger().set_enabled(false);
      h->flow_table().set_enabled(false);
      h->flight_recorder().set_armed(false);
      h->anomalies().set_armed(false);
    }
  }

  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    if (phases_.tcp) {
      build_tcp_pair(*pairs_[i], opt.seed);
    } else {
      build_udp_pair(*pairs_[i], static_cast<int>(i), opt.seed);
    }
  }
}

Scenario::~Scenario() = default;

void Scenario::build_udp_pair(Pair& p, int index, std::uint64_t seed) {
  overlay::Netns* cli_probe = nullptr;
  overlay::Netns* cli_bulk = nullptr;
  overlay::Netns* srv_probe = nullptr;
  overlay::Netns* srv_bulk = nullptr;
  if (cluster_) {
    cli_probe = &cluster_->add_client_container(index, "probe-cli");
    cli_bulk = &cluster_->add_client_container(index, "bulk-cli");
    srv_probe = &cluster_->add_server_container(index, "probe-srv");
    srv_bulk = &cluster_->add_server_container(index, "bulk-srv");
  } else {
    cli_probe = &testbed_->add_client_container("probe-cli");
    cli_bulk = &testbed_->add_client_container("bulk-cli");
    srv_probe = &testbed_->add_server_container("probe-srv");
    srv_bulk = &testbed_->add_server_container("bulk-srv");
  }
  // The probe flow is class 1 in both directions; the bulk flow class 0.
  p.server->priority_db().add(srv_probe->ip(), kProbePort);
  p.client->priority_db().add(cli_probe->ip(), kProbeSrcPort);

  p.probe_server = std::make_unique<apps::SockperfServer>(
      *p.server_sim, apps::SockperfServer::Config{
                         p.server, srv_probe, &p.server->cpu(1), kProbePort});
  p.bulk_server = std::make_unique<apps::SockperfServer>(
      *p.server_sim, apps::SockperfServer::Config{
                         p.server, srv_bulk, &p.server->cpu(2), kBulkPort});

  const auto idx = static_cast<std::uint64_t>(index);
  apps::SockperfClient::Config pc;
  pc.host = p.client;
  pc.ns = cli_probe;
  pc.cpus = {&p.client->cpu(1)};
  pc.base_src_port = kProbeSrcPort;
  pc.dst_ip = srv_probe->ip();
  pc.dst_port = kProbePort;
  pc.rate_pps = 1000.0;
  pc.payload_size = kUdpPayload;
  pc.reply_every = 1;
  pc.seed = flow_seed(seed, 2 * idx);
  pc.start_at = phases_.warmup_end;
  pc.stop_at = phases_.window_end;
  p.probe = std::make_unique<apps::SockperfClient>(*p.client_sim, pc);

  apps::SockperfClient::Config bc;
  bc.host = p.client;
  bc.ns = cli_bulk;
  bc.cpus = {&p.client->cpu(2), &p.client->cpu(3)};
  bc.base_src_port = kBulkSrcBase;
  bc.dst_ip = srv_bulk->ip();
  bc.dst_port = kBulkPort;
  bc.rate_pps = cluster_ ? 200'000.0 : 300'000.0;
  bc.payload_size = kUdpPayload;
  bc.burst = 64;
  bc.reply_every = 0;
  bc.seed = flow_seed(seed, 2 * idx + 1);
  bc.start_at = 0;
  bc.stop_at = phases_.window_end;
  p.bulk = std::make_unique<apps::SockperfClient>(*p.client_sim, bc);

  p.probe->start();
  p.bulk->start();
}

void Scenario::build_tcp_pair(Pair& p, std::uint64_t seed) {
  auto& cli_web = testbed_->add_client_container("wrk");
  auto& cli_bulk = testbed_->add_client_container("bulk-cli");
  auto& srv_web = testbed_->add_server_container("nginx");
  auto& srv_bulk = testbed_->add_server_container("bulk-srv");
  p.server->priority_db().add(srv_web.ip(), kWebPort);
  p.client->priority_db().add(cli_web.ip(), kWebSrcPort);

  auto& web_cli =
      p.client->tcp_create(cli_web, srv_web.ip(), kWebSrcPort, kWebPort);
  auto& web_srv =
      p.server->tcp_create(srv_web, cli_web.ip(), kWebPort, kWebSrcPort);
  auto& bulk_cli = p.client->tcp_create(cli_bulk, srv_bulk.ip(),
                                        kTcpBulkSrcPort, kTcpBulkPort);
  auto& bulk_srv = p.server->tcp_create(srv_bulk, cli_bulk.ip(),
                                        kTcpBulkPort, kTcpBulkSrcPort);
  p.endpoints = {&web_cli, &web_srv, &bulk_cli, &bulk_srv};

  apps::HttpServer::Config hc;
  hc.host = p.server;
  hc.ns = &srv_web;
  hc.cpu = &p.server->cpu(1);
  hc.connection = &web_srv;
  hc.response_size = 1024;
  p.http = std::make_unique<apps::HttpServer>(hc);

  apps::Wrk2Client::Config wc;
  wc.host = p.client;
  wc.ns = &cli_web;
  wc.cpu = &p.client->cpu(1);
  wc.connection = &web_cli;
  wc.rate_rps = 20'000.0;
  wc.seed = flow_seed(seed, 0);
  wc.start_at = phases_.warmup_end;
  wc.stop_at = phases_.window_end;
  p.wrk = std::make_unique<apps::Wrk2Client>(*p.client_sim, wc);

  p.sink = std::make_unique<apps::TcpSinkServer>(apps::TcpSinkServer::Config{
      &bulk_srv, &p.server->cpu(2), &p.server->cost()});
  apps::SockperfTcpSender::Config sc;
  sc.endpoint = &bulk_cli;
  sc.cpu = &p.client->cpu(2);
  sc.rate_mps = 20'000.0;
  sc.message_size = kTcpBulkMessage;
  sc.seed = flow_seed(seed, 1);
  sc.start_at = 0;
  sc.stop_at = phases_.window_end;
  p.sender = std::make_unique<apps::SockperfTcpSender>(*p.client_sim, sc);

  p.wrk->start();
  p.sender->start();
}

std::vector<kernel::Host*> Scenario::hosts() const {
  std::vector<kernel::Host*> out;
  for (const auto& p : pairs_) {
    out.push_back(p->client);
    out.push_back(p->server);
  }
  return out;
}

void Scenario::run_until(sim::Time deadline) {
  if (testbed_) {
    testbed_->run_until(deadline);
  } else {
    cluster_->run_until(deadline, opt_.threads);
    lane_windows_ += cluster_->lanes().windows_run();
  }
}

Counts Scenario::counts() {
  Counts c;
  if (testbed_) {
    c.events = testbed_->sim().events_executed();
    c.pending_events = testbed_->sim().pending_events();
  } else {
    sim::LaneSet& lanes = cluster_->lanes();
    c.events = lanes.events_executed();
    c.lane_windows = lane_windows_;
    c.lane_msgs = lanes.messages_posted();
    c.lane_spills = lanes.inbox_spills();
    for (int i = 0; i < lanes.num_lanes(); ++i) {
      c.pending_events += lanes.lane(i).pending_events();
    }
  }

  for (kernel::Host* h : hosts()) {
    c.sock_delivered += h->deliverer().delivered();
    c.nic_tx += h->nic().tx_frames();
    c.nic_rx += h->nic().rx_frames();
    c.ring_drops += h->nic().rx_dropped();
    for (int q = 0; q < h->nic().num_queues(); ++q) {
      c.irqs += h->nic().queue(q).irqs_fired();
    }
    c.fc_hits += h->flow_cache().hits();
    c.fc_misses += h->flow_cache().misses();
    c.fc_invalidations += h->flow_cache().invalidations();
    c.flight_events += h->flight_recorder().recorded();
    for (int level = 0; level < telemetry::kNumLatencyClasses; ++level) {
      c.ledger_deliveries +=
          h->latency_ledger()
              .histogram(telemetry::LatencyStage::kEndToEnd, level)
              .count();
    }
    c.rcvbuf_drops += h->faults().drops.total(fault::DropReason::kRcvbufFull);

    for (const auto& s : h->metrics().counters()) {
      const std::string_view n = s.name;
      if (ends_with(n, ".gro_merged")) c.gro_merged += s.value;
      if (ends_with(n, ".fdb_drops")) c.fdb_drops += s.value;
      if (ends_with(n, ".backlog.enqueued")) c.backlog_enq += s.value;
      if (starts_with(n, "overlay.br")) {
        if (ends_with(n, ".forwarded")) c.bridge_fwd += s.value;
        if (ends_with(n, ".cell.enqueued")) c.cell_enq += s.value;
      }
      if (!starts_with(n, "cpu") || n.find('.') != n.rfind('.')) continue;
      // Per-CPU engine counters: "cpu<i>.<name>".
      if (ends_with(n, ".polls")) c.polls += s.value;
      if (ends_with(n, ".packets")) c.poll_pkts += s.value;
      if (ends_with(n, ".softirqs")) c.softirqs += s.value;
      if (ends_with(n, ".time_squeeze")) c.time_squeeze += s.value;
      if (ends_with(n, ".requeues")) c.requeues += s.value;
      if (ends_with(n, ".prism_head_inserts")) c.head_inserts += s.value;
    }
  }
  // Queue high-water marks of the servers (the hosts under test).
  for (const auto& p : pairs_) {
    for (const auto& g : p->server->metrics().gauges()) {
      const std::string_view n = g.name;
      std::int64_t* slot = nullptr;
      if (ends_with(n, ".ring_depth")) slot = &c.ring_depth_max;
      if (ends_with(n, ".backlog.depth")) slot = &c.backlog_depth_max;
      if (ends_with(n, ".rcvbuf_depth")) slot = &c.rcvbuf_depth_max;
      if (slot != nullptr) *slot = std::max(*slot, g.max_value);
    }
  }

  for (const auto& p : pairs_) {
    if (phases_.tcp) {
      for (kernel::TcpEndpoint* ep : p->endpoints) {
        c.tcp_retransmissions += ep->retransmissions();
      }
      c.bulk_bytes += p->sink->bytes_received();
      c.app_msgs += p->wrk->sent() + p->http->requests_served() +
                    p->sender->sent_messages();
      c.gen_sent += p->wrk->sent() + p->sender->sent_messages();
      c.gen_skipped += p->sender->skipped();
    } else {
      c.bulk_bytes += p->bulk_server->received() * phases_.bulk_payload;
      c.gen_sent += p->probe->sent() + p->bulk->sent();
      c.gen_skipped += p->probe->skipped() + p->bulk->skipped();
    }
  }
  c.acks = acks();
  c.app_pkts = app_pkts();

  c.skb_allocs = kernel::SkbPool::instance().stats().allocated;
  c.buf_allocs = sim::BufferPool::instance().stats().allocated;
  return c;
}

std::uint64_t Scenario::acks() const {
  std::uint64_t n = 0;
  for (const auto& p : pairs_) {
    for (const kernel::TcpEndpoint* ep : p->endpoints) n += ep->acks_sent();
  }
  return n;
}

std::uint64_t Scenario::app_pkts() {
  if (phases_.tcp) {
    std::uint64_t delivered = 0;
    for (kernel::Host* h : hosts()) delivered += h->deliverer().delivered();
    return delivered - acks();
  }
  std::uint64_t n = 0;
  for (const auto& p : pairs_) {
    n += p->probe_server->received() + p->bulk_server->received() +
         p->probe->replies() + p->probe->late_replies();
  }
  return n;
}

void Scenario::begin_util_window(sim::Time at) {
  for (const auto& p : pairs_) {
    p->server->cpu(p->server->default_rx_cpu()).accounting().begin_window(at);
  }
}

double Scenario::util(sim::Time at) {
  double sum = 0.0;
  for (const auto& p : pairs_) {
    sum += p->server->cpu(p->server->default_rx_cpu())
               .accounting()
               .utilization(at);
  }
  return sum / static_cast<double>(pairs_.size());
}

Outcome Scenario::outcome() {
  Outcome o;
  Fnv fp;
  fp.add(testbed_ ? testbed_->sim().events_executed()
                  : cluster_->lanes().events_executed());
  for (const auto& p : pairs_) {
    if (phases_.tcp) {
      o.hi_latency.merge(p->wrk->latency());
      o.hi_sent += p->wrk->sent();
      o.hi_answered += p->wrk->completed();
      for (kernel::TcpEndpoint* ep : p->endpoints) {
        o.stream_bytes_delivered += ep->bytes_delivered();
        fp.add(ep->bytes_delivered());
        fp.add(ep->acks_sent());
        fp.add(ep->retransmissions());
        // Sequence numbers start at 1, so snd_nxt - 1 bytes were written.
        o.stream_bytes_written += ep->snd_nxt() - 1;
      }
    } else {
      o.hi_latency.merge(p->probe->latency());
      o.hi_sent += p->probe->sent();
      o.hi_answered += p->probe->replies();
      o.class_sent[1] += p->probe->sent() + p->probe->retransmits() +
                         p->probe_server->echoed();
      o.class_accounted[1] += p->probe_server->socket().received() +
                              p->probe->replies() + p->probe->late_replies();
      o.class_sent[0] += p->bulk->sent();
      o.class_accounted[0] += p->bulk_server->socket().received();
      fp.add(p->probe_server->socket().received());
      fp.add(p->bulk_server->socket().received());
      fp.add(p->probe->replies());
    }
  }
  for (kernel::Host* h : hosts()) {
    const fault::FaultLayer& f = h->faults();
    for (int cls = 0; cls < fault::kNumFaultClasses; ++cls) {
      const auto c = static_cast<std::size_t>(cls);
      // TCP sends per class are not observable, so TCP classes are
      // checked at the stream level instead.
      if (!phases_.tcp) {
        o.class_sent[c] += f.plan.duplicates_for_class(cls);
        o.class_accounted[c] += f.drops.class_total(cls);
      }
      o.frames_sent += f.plan.duplicates_for_class(cls);
      for (int r = 0; r < fault::kNumDropReasons; ++r) {
        fp.add(f.drops.count(static_cast<fault::DropReason>(r), cls));
      }
    }
    o.frames_sent += h->nic().tx_frames();
    // The socket layer counts a datagram delivered before its receive
    // buffer refuses it, so rcvbuf drops appear on both sides.
    o.frames_accounted += h->deliverer().delivered() + f.drops.total_drops() -
                          f.drops.total(fault::DropReason::kRcvbufFull);
    fp.add(h->deliverer().delivered());
  }
  fp.add(o.hi_latency.count());
  o.hi_latency.for_each_bucket([&fp](std::int64_t value, std::uint64_t n) {
    fp.add(static_cast<std::uint64_t>(value));
    fp.add(n);
  });
  o.fingerprint = fp.h;
  return o;
}

sim::LaneProfiler* Scenario::lane_profiler() {
  return cluster_ ? cluster_->lane_profiler() : nullptr;
}

bool Scenario::export_lane_trace(const std::string& path) {
  if (!cluster_ || cluster_->lane_profiler() == nullptr) return false;
  telemetry::SpanTracer tracer;
  cluster_->export_lane_trace(tracer);
  return tracer.export_chrome_trace_file(path, "perfbench-lanes");
}

double interpolated_percentile(const stats::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const int bits = h.sub_bucket_bits();
  // Sample j (0-based, ascending) is placed at its even share of its
  // bucket: the k-th of n samples sits at fraction (k + 0.5) / n.
  const auto position = [&h, bits](std::uint64_t j) {
    std::uint64_t below = 0;
    double pos = static_cast<double>(h.max());
    bool found = false;
    h.for_each_bucket([&](std::int64_t upper, std::uint64_t n) {
      if (found) return;
      if (below + n <= j) {
        below += n;
        return;
      }
      // Bucket width: 1 in the linear region, else 2^(top bit - bits).
      std::int64_t width = 1;
      if (upper >= (std::int64_t{2} << bits)) {
        const int top = 63 - std::countl_zero(static_cast<std::uint64_t>(upper));
        width = std::int64_t{1} << (top - bits);
      }
      pos = static_cast<double>(upper + 1 - width) +
            static_cast<double>(width) *
                (static_cast<double>(j - below) + 0.5) /
                static_cast<double>(n);
      found = true;
    });
    return pos;
  };
  // Linear interpolation between the two samples around rank q * (N - 1).
  const double rank = q * static_cast<double>(h.count() - 1);
  const auto j0 = static_cast<std::uint64_t>(rank);
  const std::uint64_t j1 = std::min(j0 + 1, h.count() - 1);
  const double p0 = position(j0);
  return p0 + (rank - static_cast<double>(j0)) * (position(j1) - p0);
}

}  // namespace perfbench
