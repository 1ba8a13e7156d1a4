// Container lifecycle churn soak: a seeded ChurnPlan stops, restarts and
// migrates containers across a multi-pair cluster while sockperf traffic
// flows, under invariant monitors:
//
//   * per-class packet conservation: every udp_send syscall (first
//     transmissions + app-level retransmits + server echo attempts) ends
//     as a socket delivery or a reason-counted ledger drop (dead_netns,
//     fdb_miss, unroutable, ...) summed over every host of the cluster
//   * zero post-teardown deliveries: each torn-down incarnation's socket
//     receive count is frozen at teardown completion and must not move
//     for the rest of the soak
//   * the churn surfaced as counted dead-netns drops and unlearned FDB
//     misses (the new counters actually fire, they are not dead code)
//   * bounded re-convergence: every disruption of the high-priority
//     probe container arms an AnomalyBank convergence watch on the host
//     that serves the flow next; each watch must record a recovery
//     within the configured deadline and the convergence-timeout
//     detector must never fire
//   * app resilience: the probe client's timeout/backoff retransmits
//     recover every probe lost to the churn (zero abandoned probes)
//   * determinism: the full run repeats byte-identically on 1 vs 4
//     engine threads (same-seed snapshot compare), because churn is
//     applied only at conservative-window barriers
//
// Usage: soak_churn [seed] [--short] [--threads N] [--snapshot FILE]
//                   [--disruptions N]
//   --short runs the reduced CI profile.
//   --disruptions N overrides the profile's disruptions per container
//     (the churn-rate knob of the EXPERIMENTS.md table).
//   --threads N runs a single pass on N engine threads (instead of the
//     internal 1-vs-4 comparison) — combined with --snapshot FILE this
//     lets CI diff snapshots across processes and thread counts.
// Exit status is non-zero if any monitor fails — registered with ctest
// under the "soak" label.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/sockperf.h"
#include "bench_util.h"
#include "fault/churn.h"
#include "fault/fault.h"
#include "harness/churn.h"
#include "harness/cluster.h"
#include "overlay/flow_cache.h"
#include "stats/histogram.h"
#include "stats/table.h"
#include "telemetry/anomaly.h"

namespace prism::bench {
namespace {

constexpr sim::Time kMs = 1'000'000;  // sim::Time is ns

struct Profile {
  sim::Time churn_start = 20 * kMs;
  sim::Time churn_end = 220 * kMs;
  sim::Time send_stop = 230 * kMs;
  sim::Time end = 260 * kMs;
  int disruptions_per_container = 6;

  static Profile full() { return Profile{}; }
  static Profile shortened() {
    return Profile{20 * kMs, 70 * kMs, 80 * kMs, 100 * kMs, 2};
  }

  /// Fraction of the churn window each churnable container spends down
  /// (drain + restart gap per disruption) — the "churn rate" of the
  /// EXPERIMENTS.md table.
  double downtime_fraction(const fault::ChurnConfig& cfg) const {
    const double cycle =
        static_cast<double>(cfg.drain + cfg.restart_delay);
    const double window = static_cast<double>(churn_end - churn_start);
    return cycle * disruptions_per_container / window;
  }
};

constexpr std::uint16_t kProbePort = 11111;  // class 2 request flow
constexpr std::uint16_t kBulkPort = 7000;    // class 0 one-way flow
constexpr std::uint16_t kProbeSrcPort = 20000;
constexpr std::uint16_t kBulkSrcPort = 21000;
constexpr int kPairs = 2;

/// Probe-flow SLO target and the re-convergence deadline. The cluster is
/// lightly loaded, so the kernel-side e2e p99 sits far below the target
/// in steady state; the deadline bounds how long after a disruption the
/// first compliant 1 ms window may close.
constexpr sim::Duration kSloTarget = sim::microseconds(150);
constexpr sim::Duration kConvergenceDeadline = 20 * kMs;

telemetry::AnomalyConfig churn_anomaly_config() {
  telemetry::AnomalyConfig ac;
  ac.slo_p99_ns = kSloTarget;
  ac.convergence_deadline_ns = kConvergenceDeadline;
  return ac;
}

/// One bound socket of one container incarnation. Dead incarnations keep
/// their record: `frozen` snapshots received() one tick after teardown
/// completes, and the end-of-run monitor asserts it never moved again.
struct SockRecord {
  kernel::UdpSocket* sock = nullptr;
  int pair = 0;
  int idx = 0;  ///< churnable-container index (0 probe, 1 bulk)
  int cls = 0;  ///< priority class of traffic destined to it
  std::uint64_t frozen = 0;
  bool frozen_valid = false;
};

struct SoakResult {
  std::string snapshot;
  std::uint64_t probe_sent = 0;
  std::uint64_t probe_retransmits = 0;
  std::uint64_t probe_replies = 0;
  std::uint64_t probe_abandoned = 0;
  std::uint64_t bulk_sent = 0;
  std::uint64_t dead_netns_drops = 0;
  std::uint64_t unlearned_misses = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t convergence_timeouts = 0;
};

struct PairState {
  overlay::Netns* cl = nullptr;
  std::unique_ptr<apps::SockperfClient> probe;
  std::unique_ptr<apps::SockperfClient> bulk;
  /// Every server incarnation ever created, kept alive (their sockets
  /// are tombstones after teardown; see SocketTable::close_all_udp).
  std::vector<std::unique_ptr<apps::SockperfServer>> servers;
  bool on_server_host[2] = {true, true};
  SockRecord* current[2] = {nullptr, nullptr};
};

SoakResult run_soak(std::uint64_t seed, const Profile& prof, int threads,
                    bool report) {
  harness::ClusterConfig ccfg;
  ccfg.pairs = kPairs;
  ccfg.mode = kernel::NapiMode::kPrismBatch;
  ccfg.client_cpus = 6;  // 0 rx, 1 probe tx, 2 bulk tx, 3/4 migrated apps
  ccfg.server_cpus = 4;  // 0 packet processing, 1/2 server apps
  ccfg.flow_cache = true;  // churn must invalidate the fast path too
  harness::Cluster cluster(ccfg);

  fault::ChurnConfig chcfg;
  chcfg.seed = seed;
  chcfg.start = prof.churn_start;
  chcfg.horizon = prof.churn_end;
  chcfg.pairs = kPairs;
  chcfg.containers_per_pair = 2;
  chcfg.disruptions_per_container = prof.disruptions_per_container;
  chcfg.migrate_fraction = 0.4;
  chcfg.drain = sim::microseconds(200);
  chcfg.restart_delay = sim::microseconds(300);
  chcfg.min_gap = 2 * kMs;
  fault::ChurnPlan plan;
  plan.configure(chcfg);
  harness::ChurnOrchestrator orch(cluster, plan);

  std::vector<PairState> pairs(kPairs);
  std::deque<SockRecord> socket_log;  // stable addresses

  const auto host_of = [&](int pair, int idx) -> kernel::Host& {
    return pairs[static_cast<std::size_t>(pair)]
                   .on_server_host[static_cast<std::size_t>(idx)]
               ? cluster.server(pair)
               : cluster.client(pair);
  };
  const auto sim_of = [&](int pair, int idx) -> sim::Simulator& {
    return pairs[static_cast<std::size_t>(pair)]
                   .on_server_host[static_cast<std::size_t>(idx)]
               ? cluster.server_sim(pair)
               : cluster.client_sim(pair);
  };

  /// Creates the app incarnation serving container (pair, idx) on its
  /// current host and logs its socket.
  const auto make_incarnation = [&](int pair, int idx,
                                    overlay::Netns& ns) {
    PairState& ps = pairs[static_cast<std::size_t>(pair)];
    kernel::Host& host = host_of(pair, idx);
    sim::Simulator& sim = sim_of(pair, idx);
    const bool on_server = &host == &cluster.server(pair);
    apps::SockperfServer::Config scfg;
    scfg.host = &host;
    scfg.ns = &ns;
    scfg.cpu = &host.cpu(on_server ? (idx == 0 ? 1 : 2)
                                   : (idx == 0 ? 3 : 4));
    scfg.port = idx == 0 ? kProbePort : kBulkPort;
    ps.servers.push_back(
        std::make_unique<apps::SockperfServer>(sim, scfg));
    socket_log.push_back(SockRecord{&ps.servers.back()->socket(), pair,
                                    idx, idx == 0 ? 2 : 0});
    ps.current[static_cast<std::size_t>(idx)] = &socket_log.back();
  };

  /// Freezes the current incarnation's receive count one tick after its
  /// teardown drain completes (scheduled on the owning host's lane, at
  /// the barrier where the stop was applied).
  const auto freeze_at_teardown = [&](int pair, int idx) {
    SockRecord* rec =
        pairs[static_cast<std::size_t>(pair)].current[
            static_cast<std::size_t>(idx)];
    sim_of(pair, idx).schedule(chcfg.drain + 1, [rec] {
      rec->frozen = rec->sock->received();
      rec->frozen_valid = true;
    });
  };

  for (int p = 0; p < kPairs; ++p) {
    PairState& ps = pairs[static_cast<std::size_t>(p)];
    ps.cl = &cluster.add_client_container(p, "cl" + std::to_string(p));
    overlay::Netns& sva =
        cluster.add_server_container(p, "sva" + std::to_string(p));
    overlay::Netns& svb =
        cluster.add_server_container(p, "svb" + std::to_string(p));
    orch.register_container(p, 0, sva);
    orch.register_container(p, 1, svb);

    // The probe flow (and its replies) classify as class 2 on whichever
    // host delivers them — migration moves delivery to the client host,
    // so both hosts carry the entries.
    for (kernel::Host* h : {&cluster.client(p), &cluster.server(p)}) {
      h->priority_db().add(sva.ip(), kProbePort, 2);
      h->priority_db().add(ps.cl->ip(), kProbeSrcPort, 2);
      h->anomalies().arm(churn_anomaly_config());
    }

    make_incarnation(p, 0, sva);
    make_incarnation(p, 1, svb);

    apps::SockperfClient::Config pcfg;
    pcfg.host = &cluster.client(p);
    pcfg.ns = ps.cl;
    pcfg.cpus = {&cluster.client(p).cpu(1)};
    pcfg.base_src_port = kProbeSrcPort;
    pcfg.dst_ip = sva.ip();
    pcfg.dst_port = kProbePort;
    pcfg.rate_pps = 20e3;
    pcfg.payload_size = 64;
    pcfg.reply_every = 1;
    pcfg.seed = seed + static_cast<std::uint64_t>(p);
    pcfg.start_at = 2 * kMs;
    pcfg.stop_at = prof.send_stop;
    pcfg.reply_timeout = kMs;  // 1 ms, then 2/4/8 ms backoff
    pcfg.max_retries = 3;
    pcfg.max_backoff = 8 * kMs;
    ps.probe = std::make_unique<apps::SockperfClient>(
        cluster.client_sim(p), pcfg);
    ps.probe->start();

    apps::SockperfClient::Config bcfg;
    bcfg.host = &cluster.client(p);
    bcfg.ns = ps.cl;
    bcfg.cpus = {&cluster.client(p).cpu(2)};
    bcfg.base_src_port = kBulkSrcPort;
    bcfg.dst_ip = svb.ip();
    bcfg.dst_port = kBulkPort;
    bcfg.rate_pps = 80e3;
    bcfg.payload_size = 256;
    bcfg.burst = 4;
    bcfg.reply_every = 0;
    bcfg.seed = seed + 100 + static_cast<std::uint64_t>(p);
    bcfg.start_at = 2 * kMs;
    bcfg.stop_at = prof.send_stop;
    ps.bulk = std::make_unique<apps::SockperfClient>(
        cluster.client_sim(p), bcfg);
    ps.bulk->start();
  }

  // ------------------------------------------------------------- hooks
  orch.on_stopped = [&](int pair, int idx, overlay::Netns&, sim::Time at) {
    freeze_at_teardown(pair, idx);
    if (idx == 0) host_of(pair, idx).anomalies().note_disruption(2, at);
  };
  orch.on_restarted = [&](int pair, int idx, overlay::Netns& fresh,
                          sim::Time) {
    make_incarnation(pair, idx, fresh);
  };
  orch.on_migrated = [&](int pair, int idx, overlay::Netns& fresh,
                         sim::Time at) {
    freeze_at_teardown(pair, idx);  // old incarnation, old host
    PairState& ps = pairs[static_cast<std::size_t>(pair)];
    ps.on_server_host[static_cast<std::size_t>(idx)] =
        !ps.on_server_host[static_cast<std::size_t>(idx)];
    make_incarnation(pair, idx, fresh);
    if (idx == 0) host_of(pair, idx).anomalies().note_disruption(2, at);
  };

  // --------------------------------------------------------------- run
  orch.run_until(prof.end, threads);

  // ----------------------------------------------------------- harvest
  SoakResult res;
  std::vector<std::uint64_t> injected(4, 0), accounted(4, 0);
  for (int p = 0; p < kPairs; ++p) {
    const PairState& ps = pairs[static_cast<std::size_t>(p)];
    res.probe_sent += ps.probe->sent();
    res.probe_retransmits += ps.probe->retransmits();
    res.probe_replies += ps.probe->replies();
    res.probe_abandoned += ps.probe->probe_timeouts();
    res.bulk_sent += ps.bulk->sent();
    injected[2] += ps.probe->sent() + ps.probe->retransmits();
    injected[0] += ps.bulk->sent();
    for (const auto& srv : ps.servers) injected[2] += srv->echoed();
    // Drained replies at the probe client (class 2 deliveries).
    accounted[2] += ps.probe->replies() + ps.probe->late_replies();
  }
  for (const SockRecord& rec : socket_log) {
    accounted[static_cast<std::size_t>(rec.cls)] += rec.sock->received();
  }
  std::uint64_t flow_cache_hits = 0;
  std::uint64_t flow_cache_stale = 0;
  for (int p = 0; p < kPairs; ++p) {
    for (kernel::Host* h : {&cluster.client(p), &cluster.server(p)}) {
      for (int cls = 0; cls < 4; ++cls) {
        accounted[static_cast<std::size_t>(cls)] +=
            h->faults().drops.class_total(cls);
      }
      res.dead_netns_drops +=
          h->faults().drops.total(fault::DropReason::kDeadNetns);
      res.unlearned_misses += h->fdb(42 + static_cast<std::uint32_t>(p))
                                  .unlearned_misses();
      const telemetry::AnomalyBank& bank = h->anomalies();
      res.recoveries += bank.recoveries().size();
      res.convergence_timeouts +=
          bank.fired(telemetry::AnomalyKind::kConvergenceTimeout);
      flow_cache_hits += h->flow_cache().hits();
      flow_cache_stale += h->flow_cache().stale_hits();
    }
  }

  // Snapshot: per-host fault + anomaly documents and app/socket
  // counters. Byte-identical across thread counts and reruns.
  {
    std::string s;
    for (int p = 0; p < kPairs; ++p) {
      for (kernel::Host* h : {&cluster.client(p), &cluster.server(p)}) {
        s += "== " + h->name() + " ==\n";
        s += h->proc().read("prism/faults");
        s += "\n";
        s += h->proc().read("prism/anomalies");
        s += "\n";
      }
      const PairState& ps = pairs[static_cast<std::size_t>(p)];
      s += "pair " + std::to_string(p) + " probe sent=" +
           std::to_string(ps.probe->sent()) + " rtx=" +
           std::to_string(ps.probe->retransmits()) + " replies=" +
           std::to_string(ps.probe->replies()) + " late=" +
           std::to_string(ps.probe->late_replies()) + " abandoned=" +
           std::to_string(ps.probe->probe_timeouts()) + " bulk sent=" +
           std::to_string(ps.bulk->sent()) + "\n";
    }
    for (const SockRecord& rec : socket_log) {
      s += "sock p" + std::to_string(rec.pair) + " i" +
           std::to_string(rec.idx) + " cls" + std::to_string(rec.cls) +
           " rx=" + std::to_string(rec.sock->received()) + " frozen=" +
           (rec.frozen_valid ? std::to_string(rec.frozen) : "-") + "\n";
    }
    res.snapshot = std::move(s);
  }

  // ---------------------------------------------------------- monitors
  const std::string tag =
      "seed " + std::to_string(seed) + " threads " + std::to_string(threads);

  // disruptions == 0 is the baseline arm of the EXPERIMENTS table: same
  // workload, empty plan, so the churn-presence monitors invert.
  const bool churned = prof.disruptions_per_container > 0;
  check(orch.applied() == plan.events().size(),
        tag + ": plan not fully applied (" + std::to_string(orch.applied()) +
            " of " + std::to_string(plan.events().size()) + ")");
  check(plan.events().empty() != churned,
        tag + ": plan emptiness disagrees with the requested churn");
  check(plan.count(fault::ChurnKind::kStop) ==
            plan.count(fault::ChurnKind::kRestart),
        tag + ": stops != restarts in plan");

  // Per-class conservation, to the packet, across the whole cluster.
  for (int cls = 0; cls < 4; ++cls) {
    const auto c = static_cast<std::size_t>(cls);
    check(injected[c] == accounted[c],
          tag + ": class " + std::to_string(cls) + " conservation " +
              std::to_string(injected[c]) + " != " +
              std::to_string(accounted[c]));
  }
  check((res.dead_netns_drops > 0) == churned,
        tag + ": dead-netns drops disagree with the requested churn");
  check((res.unlearned_misses > 0) == churned,
        tag + ": unlearned FDB misses disagree with the requested churn");

  // Zero post-teardown deliveries: every frozen socket is closed and its
  // receive count never moved after teardown completed.
  std::size_t frozen_count = 0;
  for (const SockRecord& rec : socket_log) {
    if (!rec.frozen_valid) continue;
    ++frozen_count;
    check(rec.sock->closed(),
          tag + ": torn-down socket not closed (pair " +
              std::to_string(rec.pair) + " idx " + std::to_string(rec.idx) +
              ")");
    check(rec.sock->received() == rec.frozen,
          tag + ": post-teardown delivery on pair " +
              std::to_string(rec.pair) + " idx " + std::to_string(rec.idx) +
              " (" + std::to_string(rec.sock->received()) + " != frozen " +
              std::to_string(rec.frozen) + ")");
  }
  check((frozen_count > 0) == churned,
        tag + ": frozen-socket count disagrees with the requested churn");

  // App resilience: the probe client retried through the churn and never
  // abandoned a probe (and without churn, never needed to retry).
  check(res.probe_replies > 0, tag + ": probe got no replies");
  check((res.probe_retransmits > 0) == churned,
        tag + ": probe retransmits disagree with the requested churn");
  check(res.probe_abandoned == 0,
        tag + ": " + std::to_string(res.probe_abandoned) +
            " probes abandoned after max retries");

#if PRISM_TELEMETRY_ENABLED
  // Bounded re-convergence: one recovery per probe-container disruption,
  // inside the deadline, and no convergence timeouts.
  std::size_t probe_disruptions = 0;
  for (const auto& e : plan.events()) {
    if (e.container == 0 && e.kind != fault::ChurnKind::kRestart) {
      ++probe_disruptions;
    }
  }
  check(res.recoveries == probe_disruptions,
        tag + ": recoveries " + std::to_string(res.recoveries) +
            " != probe disruptions " + std::to_string(probe_disruptions));
  check(res.convergence_timeouts == 0,
        tag + ": convergence-timeout detector fired " +
            std::to_string(res.convergence_timeouts) + " times");
  for (int p = 0; p < kPairs; ++p) {
    for (kernel::Host* h : {&cluster.client(p), &cluster.server(p)}) {
      for (const auto& r : h->anomalies().recoveries()) {
        check(r.recovered_at - r.disrupted_at <= kConvergenceDeadline,
              tag + ": recovery took " +
                  std::to_string(r.recovered_at - r.disrupted_at) +
                  " ns (> deadline)");
      }
    }
  }
#else
  std::printf("telemetry compiled out: convergence monitors skipped\n");
#endif

  check(flow_cache_hits > 0, tag + ": flow cache never hit");
  check((flow_cache_stale > 0) == churned,
        tag + ": flow-cache stale hits disagree with the requested churn");

  if (report) {
    // Probe latency (RTT/2, merged over pairs) and recovery times for
    // the EXPERIMENTS.md churn table.
    stats::Histogram merged;
    for (int p = 0; p < kPairs; ++p) merged.merge(pairs[
        static_cast<std::size_t>(p)].probe->latency());
    sim::Time worst_recovery = 0;
    double sum_recovery = 0;
    std::size_t n_recovery = 0;
    for (int p = 0; p < kPairs; ++p) {
      for (kernel::Host* h : {&cluster.client(p), &cluster.server(p)}) {
        for (const auto& rec : h->anomalies().recoveries()) {
          const sim::Time took = rec.recovered_at - rec.disrupted_at;
          if (took > worst_recovery) worst_recovery = took;
          sum_recovery += static_cast<double>(took);
          ++n_recovery;
        }
      }
    }
    std::printf(
        "probe latency: p50=%.1fus p99=%.1fus p999=%.1fus (n=%llu)\n"
        "recovery: mean=%.2fms worst=%.2fms (n=%zu)\n"
        "downtime fraction: %.1f%% of the churn window per container\n",
        merged.percentile(0.5) / 1e3, merged.percentile(0.99) / 1e3,
        merged.percentile(0.999) / 1e3,
        static_cast<unsigned long long>(merged.count()),
        n_recovery ? sum_recovery / (1e6 * static_cast<double>(n_recovery))
                   : 0.0,
        static_cast<double>(worst_recovery) / 1e6, n_recovery,
        100.0 * prof.downtime_fraction(chcfg));
    stats::Table et({"at_ms", "kind", "pair", "container"});
    for (const auto& e : plan.events()) {
      et.add_row({std::to_string(e.at / kMs),
                  fault::churn_kind_name(e.kind), std::to_string(e.pair),
                  std::to_string(e.container)});
    }
    std::printf("%s\n", et.render().c_str());
    std::printf(
        "probe: sent=%llu rtx=%llu replies=%llu abandoned=%llu\n"
        "bulk: sent=%llu\n"
        "churn drops: dead_netns=%llu unlearned_fdb_miss=%llu\n"
        "convergence: recoveries=%llu timeouts=%llu\n"
        "flow cache: hits=%llu stale_hits=%llu\n\n",
        static_cast<unsigned long long>(res.probe_sent),
        static_cast<unsigned long long>(res.probe_retransmits),
        static_cast<unsigned long long>(res.probe_replies),
        static_cast<unsigned long long>(res.probe_abandoned),
        static_cast<unsigned long long>(res.bulk_sent),
        static_cast<unsigned long long>(res.dead_netns_drops),
        static_cast<unsigned long long>(res.unlearned_misses),
        static_cast<unsigned long long>(res.recoveries),
        static_cast<unsigned long long>(res.convergence_timeouts),
        static_cast<unsigned long long>(flow_cache_hits),
        static_cast<unsigned long long>(flow_cache_stale));
    const char* trace_out = std::getenv("PRISM_ANOMALY_TRACE_OUT");
    if (trace_out != nullptr) {
      if (telemetry::export_anomaly_trace_file(
              cluster.server(0).anomalies(), trace_out)) {
        std::printf("wrote %s (%llu findings)\n", trace_out,
                    static_cast<unsigned long long>(
                        cluster.server(0).anomalies().findings().size()));
      }
    }
  }
  return res;
}

int main_impl(int argc, char** argv) {
  std::uint64_t seed = 1;
  bool shortened = false;
  int fixed_threads = 0;
  int disruptions = 0;  // 0 = the profile's default
  const char* snapshot_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      shortened = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      fixed_threads =
          static_cast<int>(parse_long_or_die(argv[++i], "--threads"));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      fixed_threads =
          static_cast<int>(parse_long_or_die(argv[i] + 10, "--threads"));
    } else if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--disruptions") == 0 && i + 1 < argc) {
      disruptions =
          static_cast<int>(parse_long_or_die(argv[++i], "--disruptions"));
    } else {
      const long v = parse_long_or_die(argv[i], "seed");
      if (v < 1) {
        std::fprintf(stderr, "error: seed: %ld must be >= 1\n", v);
        return 2;
      }
      seed = static_cast<std::uint64_t>(v);
    }
  }
  print_header("soak_churn",
               "container lifecycle churn soak with invariant monitors");
  Profile prof = shortened ? Profile::shortened() : Profile::full();
  if (disruptions > 0) prof.disruptions_per_container = disruptions;
  if (disruptions < 0) prof.disruptions_per_container = 0;  // baseline arm
  std::printf("seed %llu, %s profile, %d disruptions/container\n\n",
              static_cast<unsigned long long>(seed),
              shortened ? "short" : "full",
              prof.disruptions_per_container);

  if (fixed_threads > 0) {
    // Single pass for cross-process comparison (CI diffs the snapshot
    // files of a 1-thread and a 4-thread run).
    const SoakResult r = run_soak(seed, prof, fixed_threads, true);
    if (snapshot_path != nullptr) {
      std::ofstream out(snapshot_path, std::ios::binary);
      out << r.snapshot;
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", snapshot_path);
        return 2;
      }
      std::printf("wrote snapshot %s (%zu bytes)\n", snapshot_path,
                  r.snapshot.size());
    }
    std::printf("%s\n", g_failures == 0 ? "SOAK PASS" : "SOAK FAIL");
    return g_failures == 0 ? 0 : 1;
  }

  // Pool-leak accounting is only meaningful single-threaded: the pools
  // are thread-local and the 1-thread run executes entirely on this
  // thread.
  const PoolBaseline before = PoolBaseline::capture();
  const SoakResult r1 = run_soak(seed, prof, /*threads=*/1, true);
  const PoolBaseline after = PoolBaseline::capture();
  check(before.skb_outstanding == after.skb_outstanding,
        "skb pool leak across the soak");
  check(before.buf_outstanding == after.buf_outstanding,
        "buffer pool leak across the soak");

  const SoakResult r4 = run_soak(seed, prof, /*threads=*/4, false);
  check(r1.snapshot == r4.snapshot,
        "1-thread vs 4-thread snapshots differ (determinism)");
  std::printf("determinism: 1-thread and 4-thread snapshots %s (%zu bytes)\n",
              r1.snapshot == r4.snapshot ? "identical" : "DIFFER",
              r1.snapshot.size());

  std::printf("%s\n", g_failures == 0 ? "SOAK PASS" : "SOAK FAIL");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace prism::bench

int main(int argc, char** argv) {
  return prism::bench::main_impl(argc, argv);
}
