#include "harness/experiment.h"

#include <cstdio>

#include "apps/http_server.h"
#include "apps/memaslap.h"
#include "apps/memcached.h"
#include "apps/sockperf.h"
#include "harness/testbed.h"
#include "telemetry/anomaly.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/snapshot.h"
#include "telemetry/span_tracer.h"

namespace prism::harness {

namespace {

constexpr std::uint16_t kProbePort = 11111;
constexpr std::uint16_t kBgPort = 11112;
constexpr std::uint16_t kProbeSrcPort = 20000;
constexpr std::uint16_t kBgSrcBase = 21000;

/// Background drain time after the measurement window so in-flight
/// replies land before results are read.
constexpr sim::Duration kDrain = sim::milliseconds(20);

TestbedConfig testbed_config(const kernel::CostModel& cost,
                             kernel::NapiMode mode, int threads) {
  TestbedConfig tc;
  tc.cost = cost;
  tc.mode = mode;
  tc.threads = threads;
  return tc;
}

/// Clears the server's latency ledger, flow table, flight recorder and
/// anomaly bank at the warmup boundary so the reported attribution and
/// detector findings cover only the measurement window.
void reset_latency_at_warmup(Testbed& tb, sim::Time warmup) {
  tb.server_sim().schedule_at(warmup, [&tb] {
    tb.server().latency_ledger().reset();
    tb.server().flow_table().reset();
    tb.server().flight_recorder().reset();
    tb.server().anomalies().reset();
  });
}

/// Lifts the per-kind firing counters off the server's bank.
AnomalySummary anomaly_summary_of(Testbed& tb) {
  using telemetry::AnomalyKind;
  const telemetry::AnomalyBank& bank = tb.server().anomalies();
  AnomalySummary s;
  s.queue_inversions = bank.fired(AnomalyKind::kQueueInversion);
  s.ring_inversions = bank.fired(AnomalyKind::kRingInversion);
  s.slo_breaches = bank.fired(AnomalyKind::kSloBreach);
  s.drop_bursts = bank.fired(AnomalyKind::kDropBurst);
  s.governor_flaps = bank.fired(AnomalyKind::kGovernorFlap);
  s.findings_retained = bank.findings().size();
  s.events_recorded = tb.server().flight_recorder().recorded();
  s.max_inversion_wait_ns =
      static_cast<std::int64_t>(bank.max_inversion_wait_ns());
  return s;
}

/// Copies the server's flow-cache counters into a result's
/// server_flowcache_* fields (any result type that has them).
template <typename Result>
void fill_flowcache_stats(Result& result, Testbed& tb) {
  const overlay::FlowCache& fc = tb.server().flow_cache();
  result.server_flowcache_hits = fc.hits();
  result.server_flowcache_misses = fc.misses();
  result.server_flowcache_invalidations = fc.invalidations();
  result.server_flowcache_hit_rate = fc.hit_rate();
}

}  // namespace

PriorityScenarioResult run_priority_scenario(
    const PriorityScenarioConfig& cfg) {
  TestbedConfig tc = testbed_config(cfg.cost, cfg.mode, cfg.threads);
  tc.flow_cache = cfg.flow_cache;
  if (cfg.wire_drop_rate > 0 || cfg.wire_dup_rate > 0) {
    tc.server_faults.wire_drop_rate = cfg.wire_drop_rate;
    tc.server_faults.wire_duplicate_rate = cfg.wire_dup_rate;
    tc.server_faults.seed = cfg.fault_seed;
  }
  Testbed tb(tc);
  telemetry::SpanTracer tracer;
  if (!cfg.trace_out.empty()) tb.attach_span_tracer(tracer);
  if (cfg.latency_window > 0) {
    tb.server().latency_ledger().set_window_interval(cfg.latency_window);
  }
  if (cfg.arm_detectors) {
    telemetry::FlightRecorderConfig rc;
    rc.sample_period = cfg.trace_sample_period;
    tb.server().flight_recorder().configure(rc);
    telemetry::AnomalyConfig ac;
    ac.inversion_wait_ns = cfg.inversion_wait_ns;
    ac.slo_p99_ns = cfg.slo_p99_ns;
    tb.server().anomalies().arm(ac);
  }
  reset_latency_at_warmup(tb, cfg.warmup);
  const sim::Time t_end = cfg.warmup + cfg.duration;

  // Endpoints: containers on the overlay path, root namespaces on the
  // host path.
  overlay::Netns* srv_probe_ns = &tb.server().root_ns();
  overlay::Netns* srv_bg_ns = &tb.server().root_ns();
  overlay::Netns* cli_probe_ns = &tb.client().root_ns();
  overlay::Netns* cli_bg_ns = &tb.client().root_ns();
  if (cfg.overlay) {
    cli_probe_ns = &tb.add_client_container("probe-cli");
    cli_bg_ns = &tb.add_client_container("bg-cli");
    srv_probe_ns = &tb.add_server_container("probe-srv");
    srv_bg_ns = &tb.add_server_container("bg-srv");
  }

  // The probe flow is high priority in both directions.
  tb.server().priority_db().add(srv_probe_ns->ip(), kProbePort);
  tb.client().priority_db().add(cli_probe_ns->ip(), kProbeSrcPort);

  // Server applications, each on its own core (paper §V-B2).
  apps::SockperfServer probe_server(
      tb.server_sim(), {&tb.server(), srv_probe_ns, &tb.server().cpu(1),
                        kProbePort});
  apps::SockperfServer bg_server(
      tb.server_sim(),
      {&tb.server(), srv_bg_ns, &tb.server().cpu(2), kBgPort});

  // Probe client: ping-pong, every packet echoed.
  apps::SockperfClient::Config probe_cfg;
  probe_cfg.host = &tb.client();
  probe_cfg.ns = cli_probe_ns;
  probe_cfg.cpus = {&tb.client().cpu(1)};
  probe_cfg.base_src_port = kProbeSrcPort;
  probe_cfg.dst_ip = srv_probe_ns->ip();
  probe_cfg.dst_port = kProbePort;
  probe_cfg.rate_pps = cfg.probe_rate_pps;
  probe_cfg.payload_size = cfg.probe_payload;
  probe_cfg.reply_every = 1;
  probe_cfg.start_at = cfg.warmup;
  probe_cfg.stop_at = t_end;
  apps::SockperfClient probe_client(tb.client_sim(), probe_cfg);

  // Background: constant-rate UDP throughput traffic across two threads.
  apps::SockperfClient::Config bg_cfg;
  bg_cfg.host = &tb.client();
  bg_cfg.ns = cli_bg_ns;
  bg_cfg.cpus = {&tb.client().cpu(2), &tb.client().cpu(3)};
  bg_cfg.base_src_port = kBgSrcBase;
  bg_cfg.dst_ip = srv_bg_ns->ip();
  bg_cfg.dst_port = kBgPort;
  // The client object is always built (results reference it); a disabled
  // background is simply never started, but the config must stay valid.
  bg_cfg.rate_pps = cfg.bg_rate_pps > 0 ? cfg.bg_rate_pps : 1.0;
  bg_cfg.payload_size = cfg.bg_payload;
  bg_cfg.burst = cfg.bg_burst;
  bg_cfg.reply_every = 0;
  bg_cfg.start_at = 0;
  bg_cfg.stop_at = t_end + kDrain / 2;
  apps::SockperfClient bg_client(tb.client_sim(), bg_cfg);

  probe_client.start();
  if (cfg.busy && cfg.bg_rate_pps > 0) bg_client.start();

  // Measure server RX-core utilization over the probe window (server
  // state, so it samples on the server's lane).
  auto& rx_acct = tb.server_rx_cpu().accounting();
  tb.server_sim().schedule_at(cfg.warmup, [&] {
    rx_acct.begin_window(tb.server_sim().now());
  });
  double utilization = 0.0;
  tb.server_sim().schedule_at(t_end, [&] {
    utilization = rx_acct.utilization(tb.server_sim().now());
  });

  tb.run_until(t_end + kDrain);

  PriorityScenarioResult result;
  result.latency.merge(probe_client.latency());
  result.rx_cpu_utilization = utilization;
  result.probes_sent = probe_client.sent();
  result.replies = probe_client.replies();
  result.bg_sent = bg_client.sent();
  result.bg_received = bg_server.received();
  result.server_ring_drops = tb.server().nic().rx_dropped();
  result.server_latency = tb.server().latency_ledger().snapshot();
  fill_flowcache_stats(result, tb);
  result.server_anomalies = anomaly_summary_of(tb);
  if (cfg.arm_detectors) {
    result.server_anomalies_json = telemetry::anomalies_json(
        tb.server().anomalies(), &tb.server().flight_recorder());
  }
  if (!cfg.anomaly_trace_out.empty() &&
      !telemetry::export_anomaly_trace_file(tb.server().anomalies(),
                                            cfg.anomaly_trace_out)) {
    std::fprintf(stderr, "run_priority_scenario: cannot write %s\n",
                 cfg.anomaly_trace_out.c_str());
  }
  if (cfg.collect_telemetry) {
    result.server_telemetry_json = tb.server().proc().read("prism/telemetry");
    result.server_softnet_stat = tb.server().softnet_stat();
  }
  if (!cfg.trace_out.empty() &&
      !tracer.export_chrome_trace_file(cfg.trace_out, "prism-testbed")) {
    std::fprintf(stderr, "run_priority_scenario: cannot write %s\n",
                 cfg.trace_out.c_str());
  }
  return result;
}

StreamlinedScenarioResult run_streamlined_scenario(
    const StreamlinedScenarioConfig& cfg) {
  TestbedConfig tc = testbed_config(cfg.cost, cfg.mode, cfg.threads);
  tc.flow_cache = cfg.flow_cache;
  Testbed tb(tc);
  reset_latency_at_warmup(tb, cfg.warmup);
  const sim::Time t_end = cfg.warmup + cfg.duration;

  auto& cli_ns = tb.add_client_container("flow-cli");
  auto& srv_ns = tb.add_server_container("flow-srv");

  // The measured flow is the high-priority flow (paper Fig. 8 exercises
  // PRISM's streamlining on the flow itself).
  tb.server().priority_db().add(srv_ns.ip(), kProbePort);
  tb.client().priority_db().add(cli_ns.ip(), kProbeSrcPort);
  tb.client().priority_db().add(cli_ns.ip(), kProbeSrcPort + 1);

  apps::SockperfServer server(
      tb.server_sim(),
      {&tb.server(), &srv_ns, &tb.server().cpu(1), kProbePort});

  apps::SockperfClient::Config cc;
  cc.host = &tb.client();
  cc.ns = &cli_ns;
  cc.cpus = {&tb.client().cpu(1), &tb.client().cpu(2)};
  cc.base_src_port = kProbeSrcPort;
  cc.dst_ip = srv_ns.ip();
  cc.dst_port = kProbePort;
  cc.rate_pps = cfg.rate_pps;
  cc.payload_size = cfg.payload;
  cc.reply_every = cfg.reply_every;
  // sockperf's throughput pacer is very precise; near-deterministic
  // spacing is what lets PRISM-sync run at ~95% of its per-core capacity
  // without queue build-up (Fig. 8).
  cc.jitter = 0.05;
  cc.start_at = 0;
  cc.stop_at = t_end;
  apps::SockperfClient client(tb.client_sim(), cc);
  client.start();

  // Window-edge sampling, split by which host owns the counter: server
  // goodput and CPU accounting sample on the server's lane, the client
  // send counter on the client's lane. In classic mode both lanes are the
  // same simulator, so the split is behavior-neutral.
  auto& rx_acct = tb.server_rx_cpu().accounting();
  std::uint64_t received_at_warmup = 0;
  tb.server_sim().schedule_at(cfg.warmup, [&] {
    rx_acct.begin_window(tb.server_sim().now());
    received_at_warmup = server.received();
  });
  double utilization = 0.0;
  std::uint64_t received_at_end = 0;
  std::uint64_t sent_at_warmup = 0;
  tb.client_sim().schedule_at(cfg.warmup,
                              [&] { sent_at_warmup = client.sent(); });
  std::uint64_t sent_at_end = 0;
  tb.server_sim().schedule_at(t_end, [&] {
    utilization = rx_acct.utilization(tb.server_sim().now());
    received_at_end = server.received();
  });
  tb.client_sim().schedule_at(t_end, [&] { sent_at_end = client.sent(); });

  tb.run_until(t_end + kDrain);

  StreamlinedScenarioResult result;
  result.latency.merge(client.latency());
  const double span = sim::to_s(cfg.duration);
  result.delivered_pps =
      static_cast<double>(received_at_end - received_at_warmup) / span;
  result.offered_pps =
      static_cast<double>(sent_at_end - sent_at_warmup) / span;
  result.rx_cpu_utilization = utilization;
  result.server_ring_drops = tb.server().nic().rx_dropped();
  result.server_latency = tb.server().latency_ledger().snapshot();
  fill_flowcache_stats(result, tb);
  return result;
}

MemcachedScenarioResult run_memcached_scenario(
    const MemcachedScenarioConfig& cfg) {
  Testbed tb(testbed_config(cfg.cost, cfg.mode, cfg.threads));
  reset_latency_at_warmup(tb, cfg.warmup);
  const sim::Time t_end = cfg.warmup + cfg.duration;

  auto& cli_mc_ns = tb.add_client_container("memaslap");
  auto& cli_bg_ns = tb.add_client_container("bg-cli");
  auto& srv_mc_ns = tb.add_server_container("memcached");
  auto& srv_bg_ns = tb.add_server_container("bg-srv");

  tb.server().priority_db().add(srv_mc_ns.ip(), 11211);
  tb.client().priority_db().add(cli_mc_ns.ip(), 30000);

  apps::MemcachedServer::Config sc;
  sc.host = &tb.server();
  sc.ns = &srv_mc_ns;
  sc.cpu = &tb.server().cpu(1);
  apps::MemcachedServer mc_server(tb.server_sim(), sc);
  mc_server.preload(10000, cfg.value_size);

  apps::SockperfServer bg_server(
      tb.server_sim(),
      {&tb.server(), &srv_bg_ns, &tb.server().cpu(2), kBgPort});

  apps::MemaslapClient::Config mc;
  mc.host = &tb.client();
  mc.ns = &cli_mc_ns;
  mc.cpu = &tb.client().cpu(1);
  mc.src_port = 30000;
  mc.server_ip = srv_mc_ns.ip();
  mc.concurrency = cfg.concurrency;
  mc.get_ratio = cfg.get_ratio;
  mc.value_size = cfg.value_size;
  mc.start_at = cfg.warmup;
  mc.stop_at = t_end;
  mc.seed = cfg.seed;
  apps::MemaslapClient memaslap(tb.client_sim(), mc);

  apps::SockperfClient::Config bg_cfg;
  bg_cfg.host = &tb.client();
  bg_cfg.ns = &cli_bg_ns;
  bg_cfg.cpus = {&tb.client().cpu(2), &tb.client().cpu(3)};
  bg_cfg.base_src_port = kBgSrcBase;
  bg_cfg.dst_ip = srv_bg_ns.ip();
  bg_cfg.dst_port = kBgPort;
  bg_cfg.rate_pps = cfg.bg_rate_pps;
  bg_cfg.burst = cfg.bg_burst;
  bg_cfg.reply_every = 0;
  bg_cfg.start_at = 0;
  bg_cfg.stop_at = t_end + kDrain / 2;
  apps::SockperfClient bg_client(tb.client_sim(), bg_cfg);

  memaslap.start();
  if (cfg.busy && cfg.bg_rate_pps > 0) bg_client.start();

  auto& rx_acct = tb.server_rx_cpu().accounting();
  tb.server_sim().schedule_at(cfg.warmup, [&] {
    rx_acct.begin_window(tb.server_sim().now());
  });
  double utilization = 0.0;
  tb.server_sim().schedule_at(t_end, [&] {
    utilization = rx_acct.utilization(tb.server_sim().now());
  });

  tb.run_until(t_end + kDrain);

  MemcachedScenarioResult result;
  result.latency.merge(memaslap.latency());
  result.ops_per_second = memaslap.ops_per_second();
  result.completed = memaslap.completed();
  result.timeouts = memaslap.timeouts();
  result.rx_cpu_utilization = utilization;
  result.server_latency = tb.server().latency_ledger().snapshot();
  return result;
}

WebScenarioResult run_web_scenario(const WebScenarioConfig& cfg) {
  Testbed tb(testbed_config(cfg.cost, cfg.mode, cfg.threads));
  reset_latency_at_warmup(tb, cfg.warmup);
  const sim::Time t_end = cfg.warmup + cfg.duration;

  auto& cli_web_ns = tb.add_client_container("wrk");
  auto& cli_bg_ns = tb.add_client_container("bg-cli");
  auto& srv_web_ns = tb.add_server_container("nginx");
  auto& srv_bg_ns = tb.add_server_container("bg-srv");

  tb.server().priority_db().add(srv_web_ns.ip(), 80);
  tb.client().priority_db().add(cli_web_ns.ip(), 40000);

  // Web connection (single connection, paper §V-C2).
  auto& web_cli_ep =
      tb.client().tcp_create(cli_web_ns, srv_web_ns.ip(), 40000, 80);
  auto& web_srv_ep =
      tb.server().tcp_create(srv_web_ns, cli_web_ns.ip(), 80, 40000);

  apps::HttpServer::Config hc;
  hc.host = &tb.server();
  hc.ns = &srv_web_ns;
  hc.cpu = &tb.server().cpu(1);
  hc.connection = &web_srv_ep;
  hc.response_size = cfg.response_size;
  apps::HttpServer http_server(hc);

  apps::Wrk2Client::Config wc;
  wc.host = &tb.client();
  wc.ns = &cli_web_ns;
  wc.cpu = &tb.client().cpu(1);
  wc.connection = &web_cli_ep;
  wc.rate_rps = cfg.web_rate_rps;
  wc.start_at = cfg.warmup;
  wc.stop_at = t_end;
  apps::Wrk2Client wrk(tb.client_sim(), wc);

  // Background: TCP bulk (sockperf TCP throughput, 64 KB messages).
  auto& bg_cli_ep =
      tb.client().tcp_create(cli_bg_ns, srv_bg_ns.ip(), 41000, 5201);
  auto& bg_srv_ep =
      tb.server().tcp_create(srv_bg_ns, cli_bg_ns.ip(), 5201, 41000);
  apps::TcpSinkServer bg_sink(
      {&bg_srv_ep, &tb.server().cpu(2), &tb.server().cost()});
  apps::SockperfTcpSender::Config bc;
  bc.endpoint = &bg_cli_ep;
  bc.cpu = &tb.client().cpu(2);
  bc.rate_mps = cfg.bg_rate_mps;
  bc.message_size = cfg.bg_message_size;
  bc.start_at = 0;
  bc.stop_at = t_end + kDrain / 2;
  apps::SockperfTcpSender bg_sender(tb.client_sim(), bc);

  wrk.start();
  if (cfg.busy && cfg.bg_rate_mps > 0) bg_sender.start();

  auto& rx_acct = tb.server_rx_cpu().accounting();
  tb.server_sim().schedule_at(cfg.warmup, [&] {
    rx_acct.begin_window(tb.server_sim().now());
  });
  double utilization = 0.0;
  tb.server_sim().schedule_at(t_end, [&] {
    utilization = rx_acct.utilization(tb.server_sim().now());
  });

  tb.run_until(t_end + kDrain);

  WebScenarioResult result;
  result.latency.merge(wrk.latency());
  result.requests_per_second = wrk.requests_per_second();
  result.sent = wrk.sent();
  result.completed = wrk.completed();
  result.rx_cpu_utilization = utilization;
  result.bg_bytes_received = bg_sink.bytes_received();
  result.server_latency = tb.server().latency_ledger().snapshot();
  return result;
}

}  // namespace prism::harness
