// Extension bench: multiple priority levels (the paper's §VII-3 future
// work, implemented here).
//
// Three request flows at levels 0 (best effort), 1, and 2 share the busy
// server. With two-level PRISM both elevated flows would be
// indistinguishable; with multiple levels the level-2 flow preempts the
// level-1 flow's batches as well.
#include <cstdio>

#include "apps/sockperf.h"
#include "bench_util.h"
#include "harness/testbed.h"

int main() {
  using namespace prism;
  bench::print_header(
      "Extension", "multiple priority levels under heavy load");

  harness::TestbedConfig tc;
  tc.mode = kernel::NapiMode::kPrismBatch;
  harness::Testbed tb(tc);

  struct Flow {
    const char* label;
    int level;
    std::uint16_t port;
    overlay::Netns* srv;
    overlay::Netns* cli;
    std::unique_ptr<apps::SockperfServer> server;
    std::unique_ptr<apps::SockperfClient> client;
  };
  Flow flows[] = {
      {"level 0 (best effort)", 0, 11110, nullptr, nullptr, {}, {}},
      {"level 1", 1, 11111, nullptr, nullptr, {}, {}},
      {"level 2", 2, 11112, nullptr, nullptr, {}, {}},
  };

  int app_cpu = 1;
  for (auto& f : flows) {
    f.srv = &tb.add_server_container(std::string("srv-") +
                                     std::to_string(f.level));
    f.cli = &tb.add_client_container(std::string("cli-") +
                                     std::to_string(f.level));
    if (f.level > 0) {
      tb.server().priority_db().add(f.srv->ip(), f.port, f.level);
      tb.client().priority_db().add(
          f.cli->ip(), static_cast<std::uint16_t>(20000 + f.level),
          f.level);
    }
    f.server = std::make_unique<apps::SockperfServer>(
        tb.server_sim(), apps::SockperfServer::Config{
                      &tb.server(), f.srv, &tb.server().cpu(app_cpu),
                      f.port});
    app_cpu = app_cpu % 3 + 1;

    apps::SockperfClient::Config cc;
    cc.host = &tb.client();
    cc.ns = f.cli;
    cc.cpus = {&tb.client().cpu(1)};
    cc.base_src_port = static_cast<std::uint16_t>(20000 + f.level);
    cc.dst_ip = f.srv->ip();
    cc.dst_port = f.port;
    cc.rate_pps = 1000;
    cc.reply_every = 1;
    cc.seed = static_cast<std::uint64_t>(f.level) + 7;
    cc.start_at = sim::milliseconds(50);
    cc.stop_at = sim::milliseconds(450);
    f.client = std::make_unique<apps::SockperfClient>(tb.client_sim(), cc);
    f.client->start();
  }

  // Heavy best-effort background.
  auto& bg_cli = tb.add_client_container("bg-cli");
  auto& bg_srv = tb.add_server_container("bg-srv");
  apps::SockperfServer bg_sink(
      tb.server_sim(),
      {&tb.server(), &bg_srv, &tb.server().cpu(3), 11119});
  apps::SockperfClient::Config bg;
  bg.host = &tb.client();
  bg.ns = &bg_cli;
  bg.cpus = {&tb.client().cpu(2), &tb.client().cpu(3)};
  bg.base_src_port = 21000;
  bg.dst_ip = bg_srv.ip();
  bg.dst_port = 11119;
  bg.rate_pps = 300'000;
  bg.burst = 64;
  bg.stop_at = sim::milliseconds(470);
  apps::SockperfClient bg_client(tb.client_sim(), bg);
  bg_client.start();

  tb.run_until(sim::milliseconds(500));

  stats::Table table({"flow", "min(us)", "mean(us)", "p50(us)", "p90(us)",
                      "p99(us)"});
  for (auto& f : flows) {
    bench::add_latency_row(table, f.label, f.client->latency());
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Higher levels see lower latency: level 2 preempts level 1's\n"
      "batches the same way level 1 preempts best-effort traffic.\n");
  return 0;
}
