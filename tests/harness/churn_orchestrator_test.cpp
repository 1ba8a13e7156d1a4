// ChurnOrchestrator: plan events applied between run_until calls,
// incarnation slot tracking across restart/migrate, hook firing, and
// thread-count determinism of a churned cluster.
#include "harness/churn.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/churn.h"
#include "fault/fault.h"
#include "harness/cluster.h"
#include "kernel/socket.h"

namespace prism::harness {
namespace {

constexpr sim::Time kMs = 1'000'000;

ClusterConfig with_pairs(int pairs) {
  ClusterConfig config;
  config.pairs = pairs;
  return config;
}

fault::ChurnPlan make_plan(std::uint64_t seed, double migrate_fraction,
                           int disruptions = 2) {
  fault::ChurnConfig cfg;
  cfg.seed = seed;
  cfg.start = 2 * kMs;
  cfg.horizon = 30 * kMs;
  cfg.pairs = 1;
  cfg.containers_per_pair = 1;
  cfg.disruptions_per_container = disruptions;
  cfg.migrate_fraction = migrate_fraction;
  cfg.min_gap = 2 * kMs;
  fault::ChurnPlan plan;
  plan.configure(cfg);
  return plan;
}

TEST(ChurnOrchestratorTest, AppliesEveryEventAndTracksIncarnations) {
  Cluster cluster(with_pairs(1));
  // All-migrate plan: each event replaces the incarnation and flips the
  // hosting side.
  fault::ChurnPlan plan = make_plan(5, 1.0, /*disruptions=*/3);
  ASSERT_EQ(plan.count(fault::ChurnKind::kMigrate), 3u);
  ChurnOrchestrator orch(cluster, plan);
  overlay::Netns& original = cluster.add_server_container(0, "srv");
  orch.register_container(0, 0, original);

  std::vector<std::string> hook_log;
  orch.on_migrated = [&](int pair, int idx, overlay::Netns& ns,
                         sim::Time at) {
    hook_log.push_back("migrate p" + std::to_string(pair) + " i" +
                       std::to_string(idx));
    // The hook sees the fresh incarnation, already current in the slot.
    EXPECT_EQ(&orch.container(pair, idx), &ns);
    EXPECT_TRUE(ns.accepting());
    EXPECT_GE(at, 2 * kMs);
  };

  orch.run_until(35 * kMs);
  EXPECT_EQ(orch.applied(), plan.events().size());
  EXPECT_EQ(hook_log.size(), 3u);
  // Odd number of migrations on a 1-pair cluster: ends on the client.
  EXPECT_EQ(&orch.host_of(0, 0), &cluster.client(0));
  EXPECT_NE(&orch.container(0, 0), &original);
  EXPECT_TRUE(original.dead());
  // Identity survived all three moves.
  EXPECT_EQ(orch.container(0, 0).ip(), original.ip());
  EXPECT_EQ(orch.container(0, 0).mac(), original.mac());
}

TEST(ChurnOrchestratorTest, StopAndRestartHooksPairUp) {
  Cluster cluster(with_pairs(1));
  fault::ChurnPlan plan = make_plan(5, 0.0, /*disruptions=*/2);
  ASSERT_EQ(plan.count(fault::ChurnKind::kStop), 2u);
  ChurnOrchestrator orch(cluster, plan);
  overlay::Netns& ns = cluster.add_server_container(0, "srv");
  orch.register_container(0, 0, ns);

  int stops = 0, restarts = 0;
  const overlay::Netns* last_stopped = nullptr;
  orch.on_stopped = [&](int, int, overlay::Netns& old, sim::Time) {
    ++stops;
    last_stopped = &old;
    EXPECT_FALSE(old.accepting());  // draining already refuses delivery
  };
  orch.on_restarted = [&](int, int, overlay::Netns& fresh, sim::Time) {
    ++restarts;
    EXPECT_NE(&fresh, last_stopped);
    EXPECT_TRUE(fresh.accepting());
  };
  orch.run_until(35 * kMs);
  EXPECT_EQ(stops, 2);
  EXPECT_EQ(restarts, 2);
  // Restarts stay on the original host.
  EXPECT_EQ(&orch.host_of(0, 0), &cluster.server(0));
}

TEST(ChurnOrchestratorTest, DeliveryResumesAfterMigration) {
  Cluster cluster(with_pairs(1));
  overlay::Netns& cl = cluster.add_client_container(0, "cl");
  overlay::Netns& srv = cluster.add_server_container(0, "srv");
  kernel::UdpSocket& before = cluster.server(0).udp_bind(srv, 7000);

  fault::ChurnPlan plan = make_plan(9, 1.0, /*disruptions=*/1);
  ASSERT_EQ(plan.events().size(), 1u);
  const sim::Time migrate_at = plan.events()[0].at;
  ChurnOrchestrator orch(cluster, plan);
  orch.register_container(0, 0, srv);

  kernel::UdpSocket* after = nullptr;
  orch.on_migrated = [&](int, int, overlay::Netns& fresh, sim::Time) {
    after = &cluster.client(0).udp_bind(fresh, 7000);
  };

  // One packet well before the migration, one well after.
  cluster.client_sim(0).schedule_at(1 * kMs, [&] {
    cluster.client(0).udp_send(cl, cluster.client(0).cpu(1), 100, srv.ip(),
                               7000, std::vector<std::uint8_t>(32, 1));
  });
  cluster.client_sim(0).schedule_at(migrate_at + 1 * kMs, [&] {
    cluster.client(0).udp_send(cl, cluster.client(0).cpu(1), 100, srv.ip(),
                               7000, std::vector<std::uint8_t>(32, 2));
  });
  orch.run_until(migrate_at + 5 * kMs, /*threads=*/2);

  EXPECT_EQ(before.received(), 1u);
  EXPECT_TRUE(before.closed());
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->received(), 1u) << "post-migration packet lost";
}

TEST(ChurnOrchestratorTest, ChurnedClusterIsThreadCountDeterministic) {
  const auto run = [](int threads) {
    Cluster cluster(with_pairs(2));
    std::vector<kernel::UdpSocket*> socks;
    ChurnOrchestrator orch(cluster, make_plan(11, 0.5, 2));
    for (int p = 0; p < 2; ++p) {
      overlay::Netns& cl = cluster.add_client_container(p, "cl");
      overlay::Netns& srv = cluster.add_server_container(p, "srv");
      socks.push_back(&cluster.server(p).udp_bind(srv, 7000));
      orch.register_container(p, 0, srv);
      // One packet every 100 us per pair, pre-scheduled across the run.
      auto& sim = cluster.client_sim(p);
      auto& host = cluster.client(p);
      const auto dst = srv.ip();
      for (sim::Time t = 1 * kMs; t < 28 * kMs; t += 100'000) {
        sim.schedule_at(t, [&host, &cl, dst] {
          host.udp_send(cl, host.cpu(1), 100, dst, 7000,
                        std::vector<std::uint8_t>(32, 7));
        });
      }
    }
    orch.run_until(32 * kMs, threads);
    std::string snap;
    for (int p = 0; p < 2; ++p) {
      snap += cluster.server(p).proc().read("prism/faults");
      snap += cluster.client(p).proc().read("prism/faults");
    }
    for (auto* s : socks) snap += std::to_string(s->received()) + ",";
    return snap;
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace prism::harness
