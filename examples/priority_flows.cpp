// Runtime flow prioritization — the paper's dynamic-policy story
// (§IV-A): PRISM is a mechanism; which flows are high priority is decided
// by the user at runtime through the proc interface, without restarting
// anything.
//
// A latency-sensitive service shares a busy server with 300 Kpps of bulk
// traffic. Phase 1: the service is not in the priority database and
// suffers like any other flow. Phase 2 (marked at runtime with the
// equivalent of `echo "add <ip> <port>" > /proc/prism/priority`): its
// packets preempt the bulk batches.
#include <cstdio>

#include "apps/sockperf.h"
#include "harness/testbed.h"
#include "stats/summary.h"
#include "stats/table.h"

int main() {
  using namespace prism;

  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kPrismBatch;
  harness::Testbed tb(tc);

  auto& service_srv = tb.add_server_container("service");
  auto& service_cli = tb.add_client_container("service-cli");
  auto& bulk_srv = tb.add_server_container("bulk");
  auto& bulk_cli = tb.add_client_container("bulk-cli");

  apps::SockperfServer service(tb.server_sim(),
                               {&tb.server(), &service_srv,
                                &tb.server().cpu(1), 11111});
  apps::SockperfServer bulk_sink(tb.server_sim(),
                                 {&tb.server(), &bulk_srv,
                                  &tb.server().cpu(2), 11112});

  // Bulk: 300 Kpps for the whole run.
  apps::SockperfClient::Config bulk_cfg;
  bulk_cfg.host = &tb.client();
  bulk_cfg.ns = &bulk_cli;
  bulk_cfg.cpus = {&tb.client().cpu(2), &tb.client().cpu(3)};
  bulk_cfg.base_src_port = 21000;
  bulk_cfg.dst_ip = bulk_srv.ip();
  bulk_cfg.dst_port = 11112;
  bulk_cfg.rate_pps = 300'000;
  bulk_cfg.burst = 64;
  bulk_cfg.stop_at = sim::milliseconds(700);
  apps::SockperfClient bulk(tb.client_sim(), bulk_cfg);
  bulk.start();

  // The service probe, one client per measurement phase.
  auto probe_config = [&](sim::Time from, sim::Time to,
                          std::uint16_t port) {
    apps::SockperfClient::Config cfg;
    cfg.host = &tb.client();
    cfg.ns = &service_cli;
    cfg.cpus = {&tb.client().cpu(1)};
    cfg.base_src_port = port;
    cfg.dst_ip = service_srv.ip();
    cfg.dst_port = 11111;
    cfg.rate_pps = 1000;
    cfg.reply_every = 1;
    cfg.start_at = from;
    cfg.stop_at = to;
    return cfg;
  };
  apps::SockperfClient before(
      tb.client_sim(), probe_config(sim::milliseconds(50),
                                    sim::milliseconds(300), 20000));
  apps::SockperfClient after(
      tb.client_sim(), probe_config(sim::milliseconds(400),
                                    sim::milliseconds(650), 20001));
  before.start();
  after.start();

  // At t=350ms, the operator marks the service as high priority on both
  // hosts — the simulated equivalent of writing to /proc/prism/priority.
  // Each write runs on the lane of the host it changes.
  tb.server_sim().schedule_at(sim::milliseconds(350), [&] {
    char cmd[64];
    std::snprintf(cmd, sizeof(cmd), "add %s 11111",
                  service_srv.ip().to_string().c_str());
    tb.server().proc().write("prism/priority", cmd);
    std::printf("[t=%.0f ms] service flow marked high-priority via proc\n",
                sim::to_ms(tb.server_sim().now()));
  });
  tb.client_sim().schedule_at(sim::milliseconds(350), [&] {
    char cmd[64];
    std::snprintf(cmd, sizeof(cmd), "add %s 20001",
                  service_cli.ip().to_string().c_str());
    tb.client().proc().write("prism/priority", cmd);
  });

  tb.run_until(sim::milliseconds(700));

  stats::Table table({"phase", "p50 (us)", "mean (us)", "p99 (us)"});
  auto add = [&](const char* label, const stats::Histogram& h) {
    const auto s = stats::summarize(h);
    table.add_row({label,
                   stats::Table::cell(static_cast<double>(s.p50_ns) / 1e3),
                   stats::Table::cell(s.mean_ns / 1e3),
                   stats::Table::cell(static_cast<double>(s.p99_ns) /
                                      1e3)});
  };
  add("unprioritized (low)", before.latency());
  add("prioritized (high)", after.latency());
  std::printf("\nservice latency under 300 Kpps of bulk traffic:\n%s\n",
              table.render().c_str());
  std::printf("priority database entries on server: %s\n",
              tb.server().proc().read("prism/priority").c_str());
  return 0;
}
