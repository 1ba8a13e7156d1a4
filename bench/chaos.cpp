// The chaos bench: three profiles of one binary, each driving one kind of
// disruption through the simulated stack under the monitors of
// harness/invariants.h.
//
//   fault     drives the overlay pipeline through every fault mode at
//             1% / 10% / 50% rates and asserts, per scenario, per-class
//             conservation to the packet
//
//                 sends + injected duplicates == delivered + dropped
//
//             (at total level for the header-corrupt/truncate group: a
//             frame whose classification bits were destroyed can only be
//             attributed to class 0), zero pool leaks, governor recovery,
//             and that every injection point the group arms fires at the
//             10% and 50% rates. The resource and mixed groups compress
//             their sends into an overload burst, so the forced
//             ring-full/backlog-full faults land in a genuine episode.
//   overload  randomized load ramps, hot-flow floods, priority mixes and a
//             receiver-livelock episode in one continuous Testbed run:
//             per-class conservation, sheds and flow-limit convictions,
//             bounded high-priority p99 while overloaded, the livelock
//             watchdog, the ksoftirqd hand-off, recovery, and detectors
//             that fire under overload and stay silent on a clean run.
//   churn     a seeded ChurnPlan stops, restarts and migrates containers
//             across a two-pair Cluster under sockperf traffic:
//             conservation summed over all four hosts (app retransmits
//             included), zero deliveries after teardown, dead-netns drops,
//             unlearned FDB misses and stale flow-cache hits, bounded
//             re-convergence and zero abandoned probes.
//
// The reported run's proc snapshot must come back byte-identical from
// each rerun of its profile: the same seed again (fault, overload), with
// the pools off (fault), on 4 engine threads (churn). --snapshot FILE
// writes the reported run's snapshot, so CI can diff it across processes.
//
// Usage: chaos <fault|overload|churn> [seed] [--short] [--threads N]
//              [--snapshot FILE] [--disruptions N]
//   seed             default 1
//   --short          the reduced CI profile (overload, churn)
//   --threads N      churn: one pass on N >= 1 engine threads, without the
//                    4-thread rerun
//   --disruptions N  churn: disruptions per container (the churn-rate knob
//                    of the EXPERIMENTS.md table); below 0 empties the plan
//   --snapshot FILE  writes the reported run's snapshot to FILE
// Exit status: 0 when every monitor held, 1 when one failed, 2 on a usage
// error. ctest runs each profile: chaos_fault (label "stress"),
// chaos_overload and chaos_churn (label "soak").
#include <algorithm>
#include <array>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/sockperf.h"
#include "bench_util.h"
#include "fault/churn.h"
#include "fault/fault.h"
#include "harness/churn.h"
#include "harness/cluster.h"
#include "harness/invariants.h"
#include "harness/testbed.h"
#include "kernel/overload.h"
#include "kernel/skb_pool.h"
#include "sim/pool.h"
#include "sim/rng.h"
#include "stats/histogram.h"
#include "stats/table.h"
#include "telemetry/anomaly.h"
#include "telemetry/latency.h"

namespace prism::bench {
namespace {

using harness::check;

constexpr sim::Time kMs = 1'000'000;  // sim::Time is ns

/// The command line, shared by the three profiles.
struct Options {
  std::uint64_t seed = 1;
  bool shortened = false;
  int threads = 0;      ///< 0: the profile's own (churn: 1, rerun on 4)
  int disruptions = 0;  ///< 0: the profile's own; below 0: an empty plan
  const char* snapshot = nullptr;
};

// ================================================================= fault

constexpr int kFaultClasses = 3;
constexpr std::uint64_t kPerClass = 300;

struct FaultGroup {
  const char* name;
  bool per_class;  ///< conservation holds per class (else total only)
  bool episode;    ///< burst past capacity: forced overload episode
  void (*apply)(fault::FaultConfig&, double rate);
};

const FaultGroup kGroups[] = {
    {"loss", true, false,
     [](fault::FaultConfig& c, double r) { c.wire_drop_rate = r; }},
    {"payload-corrupt", true, false,
     [](fault::FaultConfig& c, double r) {
       c.wire_corrupt_rate = r;
       c.decap_corrupt_rate = r;
     }},
    {"resource", true, true,
     [](fault::FaultConfig& c, double r) {
       c.ring_full_rate = r;
       c.backlog_full_rate = r;
       c.skb_alloc_fail_rate = r;
       c.buf_alloc_fail_rate = r;
     }},
    {"mixed", true, true,
     [](fault::FaultConfig& c, double r) {
       c.wire_drop_rate = r;
       c.wire_corrupt_rate = r;
       c.wire_duplicate_rate = r;
       c.wire_reorder_rate = r;
       c.decap_corrupt_rate = r;
       c.ring_full_rate = r / 2;
       c.backlog_full_rate = r / 2;
       c.skb_alloc_fail_rate = r / 2;
       c.buf_alloc_fail_rate = r / 2;
     }},
    {"header-corrupt", false, false,
     [](fault::FaultConfig& c, double r) {
       c.wire_corrupt_rate = r;
       c.wire_truncate_rate = r;
       c.corrupt_payload_only = false;
     }},
};

/// An injection point a FaultConfig rate arms, and its counter.
struct Injection {
  double fault::FaultConfig::*rate;
  std::uint64_t fault::FaultCounters::*fired;
  const char* name;
};

const Injection kInjections[] = {
    {&fault::FaultConfig::wire_drop_rate, &fault::FaultCounters::wire_drops,
     "wire_drops"},
    {&fault::FaultConfig::wire_corrupt_rate,
     &fault::FaultCounters::wire_corrupts, "wire_corrupts"},
    {&fault::FaultConfig::wire_truncate_rate,
     &fault::FaultCounters::wire_truncates, "wire_truncates"},
    {&fault::FaultConfig::wire_duplicate_rate,
     &fault::FaultCounters::wire_duplicates, "wire_duplicates"},
    {&fault::FaultConfig::wire_reorder_rate,
     &fault::FaultCounters::wire_reorders, "wire_reorders"},
    {&fault::FaultConfig::decap_corrupt_rate,
     &fault::FaultCounters::decap_corrupts, "decap_corrupts"},
    {&fault::FaultConfig::ring_full_rate,
     &fault::FaultCounters::forced_ring_full, "forced_ring_full"},
    {&fault::FaultConfig::backlog_full_rate,
     &fault::FaultCounters::forced_backlog_full, "forced_backlog_full"},
    {&fault::FaultConfig::skb_alloc_fail_rate,
     &fault::FaultCounters::skb_alloc_fails, "skb_alloc_fails"},
    {&fault::FaultConfig::buf_alloc_fail_rate,
     &fault::FaultCounters::buf_alloc_fails, "buf_alloc_fails"},
};

std::string reason_breakdown(const fault::DropLedger& drops) {
  std::string out;
  for (int reason = 0; reason < fault::kNumDropReasons; ++reason) {
    const auto n = drops.total(static_cast<fault::DropReason>(reason));
    if (n == 0) continue;
    if (!out.empty()) out += " ";
    out += fault::drop_reason_name(static_cast<fault::DropReason>(reason));
    out += "=" + std::to_string(n);
  }
  return out.empty() ? "-" : out;
}

/// One overlay scenario: three container-to-container UDP streams, one
/// per priority class, pushed through a server armed with `group` at
/// `rate`, then monitored under `tag`. Returns its row of the sweep table
/// and appends its proc documents to `snapshot`.
std::vector<std::string> run_scenario(const FaultGroup& group, double rate,
                                      std::uint64_t seed,
                                      const std::string& tag,
                                      std::string& snapshot) {
  harness::TestbedConfig cfg;
  cfg.mode = kernel::NapiMode::kPrismBatch;
  cfg.server_faults.seed = seed;
  group.apply(cfg.server_faults, rate);
  if (group.episode) {
    // The 900-packet burst spans ~3 full-budget softirq invocations;
    // enter on a 2-squeeze streak so the episode reliably trips the
    // governor (the default streak of 8 needs a longer soak).
    cfg.server_overload.squeeze_enter_streak = 2;
  }
  harness::Testbed tb(cfg);
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  std::array<kernel::UdpSocket*, kFaultClasses> socks = {
      &tb.server().udp_bind(c2, 7000), &tb.server().udp_bind(c2, 7001),
      &tb.server().udp_bind(c2, 7002)};
  tb.server().priority_db().add(c2.ip(), 7001, 1);
  tb.server().priority_db().add(c2.ip(), 7002, 2);

  // Episode runs compress the schedule to ~1 Mpps and fan the sends
  // across every client TX CPU — a single client CPU's per-packet TX
  // cost would pace the burst below the server's capacity.
  const sim::Time spacing = group.episode ? 1'000 : 4'000;  // 1M vs 250k pps
  const int tx_cpus = group.episode ? tb.client().num_cpus() - 1 : 1;
  for (std::uint64_t i = 0; i < kPerClass; ++i) {
    for (int cls = 0; cls < kFaultClasses; ++cls) {
      const std::uint64_t n =
          i * kFaultClasses + static_cast<std::uint64_t>(cls);
      const int cpu = 1 + static_cast<int>(n % static_cast<std::uint64_t>(
                                                   tx_cpus));
      tb.client_sim().schedule_at(
          static_cast<sim::Time>(n) * spacing, [&, cls, cpu] {
            tb.client().udp_send(c1, tb.client().cpu(cpu), 4444, c2.ip(),
                                 static_cast<std::uint16_t>(7000 + cls),
                                 std::vector<std::uint8_t>(64, 0x11));
          });
    }
  }
  // The last send leaves by 900 * 4 us = 3.6 ms; a second drains the
  // pipeline (no event recurs once it is idle).
  tb.run_until(sim::seconds(1));

  kernel::Host& server = tb.server();
  harness::Conservation cons;
  for (int cls = 0; cls < kFaultClasses; ++cls) {
    const auto c = static_cast<std::size_t>(cls);
    cons.sent[c] = kPerClass;
    cons.delivered[c] = socks[c]->received();
  }
  cons.add_host(server);
  if (group.per_class) cons.check_classes(tag, kFaultClasses);
  cons.check_total(tag);

  // Whatever overload the scenario provoked must have unwound by the end
  // of the run. At 50% forced-fault rates half the burst dies at the
  // injection points and the surviving load no longer exceeds capacity,
  // so only the lower rates are required to provoke an episode.
  harness::check_governor_recovered(server.governor(), tag);
  if (group.episode && rate < 0.5) {
    check(server.governor().entries() >= 1,
          tag + ": burst episode never entered overload");
  }

  // Every injection point the group arms fires at 10% and 50% (at 1% a
  // point sees a handful of draws and may fire once or not at all).
  if (rate >= 0.10) {
    const fault::FaultCounters& fired = server.faults().plan.counters();
    for (const Injection& inj : kInjections) {
      if (cfg.server_faults.*inj.rate > 0) {
        check(fired.*inj.fired > 0,
              tag + ": armed " + inj.name + " never fired");
      }
    }
  }

  snapshot += "== " + tag + " ==\n" +
              harness::proc_snapshot(server, {"prism/faults",
                                              "prism/overload"});
  return {group.name,
          pct(rate),
          std::to_string(kPerClass * kFaultClasses),
          std::to_string(harness::Conservation::sum(cons.duplicates)),
          std::to_string(harness::Conservation::sum(cons.delivered)),
          std::to_string(harness::Conservation::sum(cons.dropped)),
          reason_breakdown(server.faults().drops)};
}

std::string run_fault(const Options& o, int /*threads*/, bool report) {
  stats::Table table(
      {"group", "rate", "sent", "dups", "delivered", "dropped", "reasons"});
  std::string snapshot;
  for (const auto& group : kGroups) {
    for (const double rate : {0.01, 0.10, 0.50}) {
      const std::string tag = std::string(group.name) + " @ " + pct(rate) +
                              " seed=" + std::to_string(o.seed);
      const harness::PoolBaseline before = harness::PoolBaseline::capture();
      table.add_row(run_scenario(group, rate, o.seed, tag, snapshot));
      harness::check_no_pool_leak(before, tag);
    }
  }
  if (report) std::printf("%s\n", table.render().c_str());
  return snapshot;
}

// ============================================================== overload
//
// The run is phased: baseline probe -> R randomized overload rounds (bulk
// level-0 floods, optionally a single hot flow for the flow limiter, plus
// a level-1 flood that starves level 0) -> a flood at an unbound port
// (zero deliveries => livelock) -> cooldown -> recovery probe. Phase
// boundaries are aligned to the latency ledger's 10 ms windows so
// per-phase p99 slices cleanly out of the time-series.

struct OverloadProfile {
  int rounds = 4;
  sim::Time round = 40 * kMs;
  sim::Time baseline = 40 * kMs;
  sim::Time livelock = 30 * kMs;
  sim::Time recovery = 40 * kMs;

  static OverloadProfile full() { return OverloadProfile{}; }
  static OverloadProfile shortened() {
    return OverloadProfile{2, 30 * kMs, 40 * kMs, 20 * kMs, 30 * kMs};
  }
};

/// One randomized overload round (drawn at setup from the seed).
struct Round {
  sim::Time start = 0;
  double bulk_pps = 0;   ///< level-0 flood
  double flood_pps = 0;  ///< level-1 flood (starves level 0)
  bool hot = false;      ///< bulk is a single flow (flow_limit bait)
};

constexpr std::uint16_t kBulkPort = 7000;     // level 0
constexpr std::uint16_t kFloodPort = 7001;    // level 1
constexpr std::uint16_t kProbePort = 7002;    // level 2
constexpr std::uint16_t kUnboundPort = 7999;  // no socket: livelock bait

/// Detector arming for the soak: the SLO target sits between the probe's
/// unloaded windowed p99 (~45us, short profile) and its overloaded one
/// (~90us; the flood class sits at ~106us), so overload rounds breach it
/// while the pre-ramp baseline and a clean run never do. The drop-burst
/// threshold is far above fault-injection noise but well below one
/// overloaded round's shed rate.
constexpr sim::Duration kOverloadSloTarget = sim::microseconds(64);
constexpr std::uint32_t kDropBurstThreshold = 256;  // per 1 ms window

telemetry::AnomalyConfig overload_anomaly_config() {
  telemetry::AnomalyConfig ac;
  ac.slo_p99_ns = kOverloadSloTarget;
  ac.drop_burst_threshold = kDropBurstThreshold;
  ac.flap_threshold = 4;
  return ac;
}

/// Self-rescheduling one-way UDP sender from the client container `ns`:
/// `pps` datagrams per second in ticks of `burst` until `stop`, rotating
/// client CPUs and source ports. Scheduled ticks hold its address.
struct Stream {
  Stream(harness::Testbed& tb, overlay::Netns& ns, net::Ipv4Addr dst_ip,
         std::uint16_t dst_port, std::vector<std::uint16_t> src_ports,
         double pps, int burst, sim::Time stop)
      : tb(tb),
        ns(ns),
        dst_ip(dst_ip),
        dst_port(dst_port),
        src_ports(std::move(src_ports)),
        stop(stop),
        tick_gap(static_cast<sim::Duration>(1e9 * burst / pps)),
        burst(burst) {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  void start(sim::Time at) {
    tb.client_sim().schedule_at(at, [this] { tick(); });
  }

  void tick() {
    static const std::vector<std::uint8_t> payload(64, 0x5a);
    auto& client = tb.client();
    const int tx_cpus = client.num_cpus() - 1;  // CPU 0 handles client RX
    for (int i = 0; i < burst; ++i) {
      client.udp_send(ns, client.cpu(next_cpu), src_ports[next_port],
                      dst_ip, dst_port, payload);
      ++sent;
      next_cpu = 1 + next_cpu % tx_cpus;
      next_port = (next_port + 1) % src_ports.size();
    }
    const sim::Time t = tb.client_sim().now() + tick_gap;
    if (t < stop) tb.client_sim().schedule_at(t, [this] { tick(); });
  }

  harness::Testbed& tb;
  overlay::Netns& ns;
  net::Ipv4Addr dst_ip;
  std::uint16_t dst_port;
  std::vector<std::uint16_t> src_ports;
  sim::Time stop;
  sim::Duration tick_gap;
  int burst;
  std::uint64_t sent = 0;
  int next_cpu = 1;
  std::size_t next_port = 0;
};

/// Governor state sampled mid-round (moderation-stretch monitor).
struct MidRoundSample {
  kernel::OverloadGovernor::State state;
  sim::Duration coalesce_usecs;
};

/// Max probe-window p99 for `level` over delivery windows starting in
/// [lo, hi), ignoring slivers below `min_count` samples. -1 if none.
std::int64_t max_window_p99(const telemetry::LatencyBreakdown& b, int level,
                            sim::Time lo, sim::Time hi,
                            std::uint64_t min_count = 50) {
  std::int64_t worst = -1;
  for (const auto& w : b.windows) {
    if (w.level != level || w.start_ns < lo || w.start_ns >= hi) continue;
    if (w.count < min_count) continue;
    worst = std::max(worst, w.p99_ns);
  }
  return worst;
}

/// The testbed shape both the soak and its clean reference run use.
harness::TestbedConfig overload_testbed_config() {
  harness::TestbedConfig cfg;
  cfg.mode = kernel::NapiMode::kPrismBatch;
  cfg.server_netdev_max_backlog = 256;  // watermarks reachable (DESIGN.md)
  // Tighter IRQ moderation than the harness default ({50us, 64 frames}).
  // The NIC ring is priority-blind (paper SIV-D), so the probe's ring
  // wait under overload is bounded below by the coalesce accumulation
  // window; an 8-frame trigger keeps that window ~15us at ramp rates.
  cfg.coalesce = nic::CoalesceConfig{sim::microseconds(40), 8};
  // Steer the bridge->backlog boundary to CPU 1 (paper SII-A RPS) and
  // make the backlog stage the bottleneck (~500 kpps). The soak's
  // oversubscription then lives in the per-CPU backlog -- where priority
  // admission and the priority queues act -- while CPU 0 keeps the
  // priority-blind NIC ring drained. Without the split, every queue in
  // the shared-CPU pipeline fills together and no amount of shedding can
  // keep the high-priority ring wait bounded.
  cfg.server_rps_cpus = {1};
  cfg.cost.backlog_stage_per_packet = sim::microseconds(2);
  // Smaller per-poll weight: a high-priority packet arriving mid-poll
  // waits out at most one in-flight 12-packet batch of shed-class work
  // (~40us at the backlog stage) instead of a full 64-packet one.
  cfg.cost.napi_batch_size = 12;
  return cfg;
}

/// A clean reference run: same testbed shape and armed detectors, but
/// only the probe stream — no floods, no fault injection, no overload.
/// Returns the bank's fired_total, which must be zero: the detectors'
/// thresholds are calibrated to stay silent on a healthy system.
std::uint64_t run_clean_baseline() {
  harness::Testbed tb(overload_testbed_config());
  tb.server().anomalies().arm(overload_anomaly_config());
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  tb.server().udp_bind(c2, kProbePort, /*capacity=*/65536);
  tb.server().priority_db().add(c2.ip(), kProbePort, 2);

  Stream probe(tb, c1, c2.ip(), kProbePort, {4444}, 100e3, 1, 50 * kMs);
  probe.start(10 * kMs);
  tb.run_until(1000 * kMs);
  return tb.server().anomalies().fired_total();
}

std::string run_overload(const Options& o, int /*threads*/, bool report) {
  const OverloadProfile prof =
      o.shortened ? OverloadProfile::shortened() : OverloadProfile::full();
  if (report) {
    std::printf("profile: %s, seed %llu (%d rounds x %lld ms)\n\n",
                o.shortened ? "short" : "full",
                static_cast<unsigned long long>(o.seed), prof.rounds,
                static_cast<long long>(prof.round / kMs));
  }
  // Per-round parameters come from a dedicated generator so the draw
  // sequence depends only on the seed and profile.
  sim::Rng rng(o.seed);
  std::vector<Round> rounds(static_cast<std::size_t>(prof.rounds));
  const sim::Time ramp_start = 10 * kMs + prof.baseline;
  for (int i = 0; i < prof.rounds; ++i) {
    auto& r = rounds[static_cast<std::size_t>(i)];
    r.start = ramp_start + i * prof.round;
    r.bulk_pps = rng.uniform(360e3, 420e3);
    r.flood_pps = rng.uniform(30e3, 60e3);
    r.hot = rng.chance(0.5);
  }
  const sim::Time ramp_end = ramp_start + prof.rounds * prof.round;
  const sim::Time livelock_start = ramp_end + 20 * kMs;
  const sim::Time livelock_end = livelock_start + prof.livelock;
  const sim::Time recovery_start = livelock_end + 20 * kMs;
  const sim::Time recovery_end = recovery_start + prof.recovery;

  harness::TestbedConfig cfg = overload_testbed_config();
  // A 2x moderation stretch keeps degradation-at-the-source observable
  // without swamping the high-priority latency bound the soak asserts.
  cfg.server_overload.moderation_stretch = 2.0;
  // Enter overload below the flow limiter's half-backlog activation
  // point: a single convicted hot flow stabilizes the backlog just under
  // max_backlog/2, so a watermark above that never fires for hot-flow
  // overload even though low-priority work is being shed continuously.
  cfg.server_overload.high_watermark = 0.45;
  // Mild payload-safe fault mix (the fault profile's loss + resource
  // groups) so the soak exercises the hardened drop paths under overload
  // too.
  cfg.server_faults.seed = o.seed;
  cfg.server_faults.wire_drop_rate = 0.004;
  cfg.server_faults.wire_duplicate_rate = 0.002;
  cfg.server_faults.ring_full_rate = 0.002;
  cfg.server_faults.backlog_full_rate = 0.002;
  cfg.server_faults.skb_alloc_fail_rate = 0.002;
  harness::Testbed tb(cfg);
  kernel::Host& server = tb.server();
  // Detectors armed for the whole soak: inversion (default 100 us),
  // per-class SLO p99, drop bursts, governor flapping. They observe
  // only — the determinism reruns cover their document.
  server.anomalies().arm(overload_anomaly_config());
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  std::array<kernel::UdpSocket*, 3> socks = {
      &server.udp_bind(c2, kBulkPort, /*capacity=*/65536),
      &server.udp_bind(c2, kFloodPort, /*capacity=*/65536),
      &server.udp_bind(c2, kProbePort, /*capacity=*/65536)};
  server.priority_db().add(c2.ip(), kFloodPort, 1);
  server.priority_db().add(c2.ip(), kProbePort, 2);

  std::vector<std::unique_ptr<Stream>> streams;
  const auto add_stream = [&](std::uint16_t dst_port,
                              std::vector<std::uint16_t> src_ports,
                              double pps, int burst, sim::Time start,
                              sim::Time stop) {
    streams.push_back(std::make_unique<Stream>(
        tb, c1, c2.ip(), dst_port, std::move(src_ports), pps, burst, stop));
    streams.back()->start(start);
  };

  // Probe: low-rate level-2 flow spanning baseline and every ramp round,
  // then again after cooldown for the recovery measurement.
  add_stream(kProbePort, {4444}, 100e3, 1, 10 * kMs, ramp_end);
  add_stream(kProbePort, {4444}, 100e3, 1, recovery_start, recovery_end);

  for (const auto& r : rounds) {
    std::vector<std::uint16_t> bulk_ports;
    if (r.hot) {
      bulk_ports = {5000};
    } else {
      for (std::uint16_t p = 5000; p < 5008; ++p) bulk_ports.push_back(p);
    }
    add_stream(kBulkPort, std::move(bulk_ports), r.bulk_pps, 16, r.start,
               r.start + prof.round);
    add_stream(kFloodPort, {6000, 6001}, r.flood_pps, 8, r.start,
               r.start + prof.round);
  }

  // Livelock bait: nothing is bound at kUnboundPort, so every packet the
  // pipeline delivers ends as a no-socket drop — zero stage-3 deliveries
  // while arrivals continue.
  add_stream(kUnboundPort, {6500, 6501, 6502, 6503}, 500e3, 16,
             livelock_start, livelock_end);

  // Mid-round governor samples (moderation-stretch monitor).
  std::vector<MidRoundSample> mid_round;
  for (const auto& r : rounds) {
    tb.server_sim().schedule_at(r.start + prof.round / 2, [&] {
      mid_round.push_back({server.governor().state(),
                           server.nic().queue(0).coalesce().usecs});
    });
  }

  // Drain well past the last send (no event recurs once the pipeline is
  // idle).
  tb.run_until(recovery_end + 1000 * kMs);

  harness::Conservation cons;
  for (const auto& s : streams) {
    const std::size_t cls = s->dst_port == kProbePort    ? 2
                            : s->dst_port == kFloodPort ? 1
                                                        : 0;
    cons.sent[cls] += s->sent;
  }
  for (std::size_t c = 0; c < socks.size(); ++c) {
    cons.delivered[c] = socks[c]->received();
  }
  cons.add_host(server);

  std::uint64_t sheds = 0;
  std::uint64_t flow_limits = 0;
  std::uint64_t ksoftirqd_deferrals = 0;
  for (int i = 0; i < server.num_cpus(); ++i) {
    sheds += server.admission(i).shed_count();
    flow_limits += server.admission(i).flow_limit_count();
    ksoftirqd_deferrals += server.engine(i).ksoftirqd_deferrals();
  }
  const kernel::OverloadGovernor& gov = server.governor();
  const telemetry::LatencyBreakdown latency =
      server.latency_ledger().snapshot();
  const telemetry::AnomalyBank& bank = server.anomalies();
  const std::uint64_t slo_breaches =
      bank.fired(telemetry::AnomalyKind::kSloBreach);
  const std::uint64_t drop_bursts =
      bank.fired(telemetry::AnomalyKind::kDropBurst);
  sim::Time first_slo_breach_at = -1;
  for (const auto& f : bank.findings()) {
    if (f.kind == telemetry::AnomalyKind::kSloBreach) {
      first_slo_breach_at = f.at;
      break;
    }
  }
  if (report) harness::export_anomaly_trace(bank);

  // ------------------------------------------------------------ monitors
  const std::string tag = "seed " + std::to_string(o.seed);
  cons.check_classes(tag, 3);

  // Overload machinery engaged: low priority was shed while the probe
  // ran, and squeezed softirq passes were handed to ksoftirqd.
  check(sheds > 0, tag + ": no level-0 sheds during the ramp");
  bool any_hot = false;
  for (const auto& r : rounds) any_hot |= r.hot;
  if (any_hot) {
    check(flow_limits > 0,
          tag + ": hot-flow round ran but flow_limit never convicted");
  }
  check(ksoftirqd_deferrals > 0,
        tag + ": no squeezed softirq pass was deferred to ksoftirqd");
  check(gov.entries() >= 2,
        tag + ": expected ramp + livelock overload entries");
  harness::check_governor_recovered(gov, tag);

  // Moderation stretch observable while overloaded mid-round.
  int overloaded_samples = 0;
  for (const auto& s : mid_round) {
    if (s.state != kernel::OverloadGovernor::State::kOverloaded) continue;
    ++overloaded_samples;
    const auto stretched = static_cast<sim::Duration>(
        static_cast<double>(cfg.coalesce.usecs) *
        cfg.server_overload.moderation_stretch);
    check(s.coalesce_usecs == stretched,
          tag + ": overloaded mid-round sample without stretched "
                "IRQ moderation");
  }
  check(overloaded_samples > 0,
        tag + ": governor never overloaded at a round midpoint");

  // Livelock watchdog: fires within 15 ms of the unserviceable flood and
  // is demoted by the first recovery delivery.
  sim::Time livelock_at = -1;
  bool resumed = false;
  for (const auto& t : gov.transitions()) {
    if (std::strcmp(t.cause, "livelock") == 0 && livelock_at < 0) {
      livelock_at = t.at;
    }
    resumed |= std::strcmp(t.cause, "delivery_resumed") == 0;
  }
  check(gov.livelocks() >= 1, tag + ": watchdog never fired");
  check(livelock_at >= livelock_start &&
            livelock_at <= livelock_start + 15 * kMs,
        tag + ": watchdog fired outside bound (at " +
            std::to_string(livelock_at) + " ns)");
  check(resumed, tag + ": livelock never demoted by delivery resumption");

  // Probe p99: bounded while overloaded, recovered after.
  const std::int64_t base_p99 =
      max_window_p99(latency, 2, 10 * kMs, ramp_start);
  const std::int64_t ramp_p99 =
      max_window_p99(latency, 2, ramp_start, ramp_end);
  const std::int64_t rec_p99 =
      max_window_p99(latency, 2, recovery_start + 10 * kMs, recovery_end);
  check(latency.windows_evicted == 0,
        tag + ": latency window ring evicted (slices incomplete)");
  check(base_p99 > 0, tag + ": no baseline probe windows");
  check(ramp_p99 > 0, tag + ": no overloaded probe windows");
  check(rec_p99 > 0, tag + ": no recovery probe windows");
  if (base_p99 > 0 && ramp_p99 > 0 && rec_p99 > 0) {
    check(ramp_p99 <= 3 * base_p99,
          tag + ": overloaded probe p99 " + us(ramp_p99) +
              "us > 3x baseline " + us(base_p99) + "us");
    check(rec_p99 <= base_p99 + base_p99 / 10,
          tag + ": recovery probe p99 " + us(rec_p99) +
              "us not within 10% of baseline " + us(base_p99) + "us");
  }

  // Detector bank: the overload phases must breach the armed SLO and
  // trip the drop-burst detector; the clean reference run asserts the
  // converse, that nothing fires without overload.
  check(slo_breaches >= 1, tag + ": SLO-breach detector never fired");
  check(first_slo_breach_at >= ramp_start,
        tag + ": SLO breach before the ramp started (at " +
            std::to_string(first_slo_breach_at) + " ns)");
  check(drop_bursts >= 1,
        tag + ": drop-burst detector never fired despite shedding");

  if (report) {
    stats::Table rt({"round", "start_ms", "bulk_kpps", "flood_kpps", "hot"});
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      rt.add_row({std::to_string(i), std::to_string(rounds[i].start / kMs),
                  kpps(rounds[i].bulk_pps), kpps(rounds[i].flood_pps),
                  rounds[i].hot ? "yes" : "no"});
    }
    std::printf("%s\n", rt.render().c_str());

    stats::Table ct({"class", "sent", "dups", "delivered", "dropped"});
    const char* names[3] = {"0 bulk(+unbound)", "1 flood", "2 probe"};
    for (int cls = 2; cls >= 0; --cls) {
      const auto c = static_cast<std::size_t>(cls);
      ct.add_row({names[c], std::to_string(cons.sent[c]),
                  std::to_string(cons.duplicates[c]),
                  std::to_string(cons.delivered[c]),
                  std::to_string(cons.dropped[c])});
    }
    std::printf("%s\n", ct.render().c_str());

    std::printf("overload: entries=%llu exits=%llu livelocks=%llu "
                "sheds=%llu flow_limit=%llu\n",
                static_cast<unsigned long long>(gov.entries()),
                static_cast<unsigned long long>(gov.exits()),
                static_cast<unsigned long long>(gov.livelocks()),
                static_cast<unsigned long long>(sheds),
                static_cast<unsigned long long>(flow_limits));
    std::printf("detectors: slo_breaches=%llu (first at %lld ns) "
                "drop_bursts=%llu\n",
                static_cast<unsigned long long>(slo_breaches),
                static_cast<long long>(first_slo_breach_at),
                static_cast<unsigned long long>(drop_bursts));
    std::printf("probe p99: baseline %sus, overloaded %sus (bound 3x), "
                "recovered %sus (bound +10%%)\n\n",
                us(base_p99).c_str(), us(ramp_p99).c_str(),
                us(rec_p99).c_str());
    std::printf("%s\n", render_latency_windows(latency).c_str());
    std::printf("%s\n", render_latency_breakdown(latency).c_str());

    const std::uint64_t clean_fired = run_clean_baseline();
    check(clean_fired == 0,
          "clean baseline fired " + std::to_string(clean_fired) +
              " anomaly detector(s); thresholds are miscalibrated");
  }
  return harness::proc_snapshot(
      server, {"prism/overload", "prism/faults", "prism/anomalies"});
}

// ================================================================= churn

struct ChurnProfile {
  sim::Time churn_start = 20 * kMs;
  sim::Time churn_end = 220 * kMs;
  sim::Time send_stop = 230 * kMs;
  sim::Time end = 260 * kMs;
  int disruptions_per_container = 6;

  static ChurnProfile full() { return ChurnProfile{}; }
  static ChurnProfile shortened() {
    return ChurnProfile{20 * kMs, 70 * kMs, 80 * kMs, 100 * kMs, 2};
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

constexpr std::uint16_t kChurnProbePort = 11111;  // class 2 request flow
constexpr std::uint16_t kChurnBulkPort = 7000;    // class 0 one-way flow
constexpr std::uint16_t kProbeSrcPort = 20000;
constexpr std::uint16_t kBulkSrcPort = 21000;
constexpr int kPairs = 2;

/// Probe-flow SLO target and the re-convergence deadline. The cluster is
/// lightly loaded, so the kernel-side e2e p99 sits far below the target
/// in steady state; the deadline bounds how long after a disruption the
/// first compliant 1 ms window may close.
constexpr sim::Duration kChurnSloTarget = sim::microseconds(150);
constexpr sim::Duration kConvergenceDeadline = 20 * kMs;

telemetry::AnomalyConfig churn_anomaly_config() {
  telemetry::AnomalyConfig ac;
  ac.slo_p99_ns = kChurnSloTarget;
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

std::string run_churn(const Options& o, int threads, bool report) {
  ChurnProfile prof =
      o.shortened ? ChurnProfile::shortened() : ChurnProfile::full();
  if (o.disruptions > 0) prof.disruptions_per_container = o.disruptions;
  if (o.disruptions < 0) prof.disruptions_per_container = 0;  // baseline
  if (report) {
    std::printf("seed %llu, %s profile, %d disruptions/container\n\n",
                static_cast<unsigned long long>(o.seed),
                o.shortened ? "short" : "full",
                prof.disruptions_per_container);
  }

  harness::ClusterConfig ccfg;
  ccfg.pairs = kPairs;
  ccfg.mode = kernel::NapiMode::kPrismBatch;
  ccfg.client_cpus = 6;  // 0 rx, 1 probe tx, 2 bulk tx, 3/4 migrated apps
  ccfg.server_cpus = 4;  // 0 packet processing, 1/2 server apps
  ccfg.flow_cache = true;  // churn must invalidate the fast path too
  harness::Cluster cluster(ccfg);

  fault::ChurnConfig chcfg;
  chcfg.seed = o.seed;
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
    scfg.port = idx == 0 ? kChurnProbePort : kChurnBulkPort;
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
      h->priority_db().add(sva.ip(), kChurnProbePort, 2);
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
    pcfg.dst_port = kChurnProbePort;
    pcfg.rate_pps = 20e3;
    pcfg.payload_size = 64;
    pcfg.reply_every = 1;
    pcfg.seed = o.seed + static_cast<std::uint64_t>(p);
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
    bcfg.dst_port = kChurnBulkPort;
    bcfg.rate_pps = 80e3;
    bcfg.payload_size = 256;
    bcfg.burst = 4;
    bcfg.reply_every = 0;
    bcfg.seed = o.seed + 100 + static_cast<std::uint64_t>(p);
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
  // Every udp_send syscall (first transmissions, app-level retransmits,
  // server echoes) ends as a socket delivery or a ledgered drop on one of
  // the four hosts. The snapshot holds each host's fault and anomaly
  // documents and the app and socket counters: byte-identical across
  // thread counts and reruns.
  harness::Conservation cons;
  std::string snapshot;
  std::uint64_t probe_sent = 0;
  std::uint64_t probe_retransmits = 0;
  std::uint64_t probe_replies = 0;
  std::uint64_t probe_abandoned = 0;
  std::uint64_t bulk_sent = 0;
  std::uint64_t dead_netns_drops = 0;
  std::uint64_t unlearned_misses = 0;
  std::uint64_t convergence_timeouts = 0;
  std::uint64_t flow_cache_hits = 0;
  std::uint64_t flow_cache_stale = 0;
  std::vector<sim::Duration> recovery_times;
  for (int p = 0; p < kPairs; ++p) {
    for (kernel::Host* h : {&cluster.client(p), &cluster.server(p)}) {
      cons.add_host(*h);
      dead_netns_drops +=
          h->faults().drops.total(fault::DropReason::kDeadNetns);
      unlearned_misses +=
          h->fdb(cluster.pair(p).overlay().vni()).unlearned_misses();
      const telemetry::AnomalyBank& bank = h->anomalies();
      for (const auto& r : bank.recoveries()) {
        recovery_times.push_back(r.recovered_at - r.disrupted_at);
      }
      convergence_timeouts +=
          bank.fired(telemetry::AnomalyKind::kConvergenceTimeout);
      flow_cache_hits += h->flow_cache().hits();
      flow_cache_stale += h->flow_cache().stale_hits();
      snapshot += "== pair " + std::to_string(p) + " " + h->name() +
                  " ==\n" +
                  harness::proc_snapshot(
                      *h, {"prism/faults", "prism/anomalies"});
    }
    const PairState& ps = pairs[static_cast<std::size_t>(p)];
    probe_sent += ps.probe->sent();
    probe_retransmits += ps.probe->retransmits();
    probe_replies += ps.probe->replies();
    probe_abandoned += ps.probe->probe_timeouts();
    bulk_sent += ps.bulk->sent();
    cons.sent[2] += ps.probe->sent() + ps.probe->retransmits();
    cons.sent[0] += ps.bulk->sent();
    for (const auto& srv : ps.servers) cons.sent[2] += srv->echoed();
    // Drained replies at the probe client (class 2 deliveries).
    cons.delivered[2] += ps.probe->replies() + ps.probe->late_replies();
    snapshot += "pair " + std::to_string(p) + " probe sent=" +
                std::to_string(ps.probe->sent()) + " rtx=" +
                std::to_string(ps.probe->retransmits()) + " replies=" +
                std::to_string(ps.probe->replies()) + " late=" +
                std::to_string(ps.probe->late_replies()) + " abandoned=" +
                std::to_string(ps.probe->probe_timeouts()) +
                " bulk sent=" + std::to_string(ps.bulk->sent()) + "\n";
  }
  for (const SockRecord& rec : socket_log) {
    cons.delivered[static_cast<std::size_t>(rec.cls)] +=
        rec.sock->received();
    snapshot += "sock p" + std::to_string(rec.pair) + " i" +
                std::to_string(rec.idx) + " cls" + std::to_string(rec.cls) +
                " rx=" + std::to_string(rec.sock->received()) + " frozen=" +
                (rec.frozen_valid ? std::to_string(rec.frozen) : "-") +
                "\n";
  }

  // ---------------------------------------------------------- monitors
  const std::string tag = "seed " + std::to_string(o.seed) + " threads " +
                          std::to_string(threads);

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

  cons.check_classes(tag);
  check((dead_netns_drops > 0) == churned,
        tag + ": dead-netns drops disagree with the requested churn");
  check((unlearned_misses > 0) == churned,
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
  check(probe_replies > 0, tag + ": probe got no replies");
  check((probe_retransmits > 0) == churned,
        tag + ": probe retransmits disagree with the requested churn");
  check(probe_abandoned == 0,
        tag + ": " + std::to_string(probe_abandoned) +
            " probes abandoned after max retries");

  // Bounded re-convergence: one recovery per probe-container disruption,
  // inside the deadline, and no convergence timeouts.
  std::size_t probe_disruptions = 0;
  for (const auto& e : plan.events()) {
    if (e.container == 0 && e.kind != fault::ChurnKind::kRestart) {
      ++probe_disruptions;
    }
  }
  check(recovery_times.size() == probe_disruptions,
        tag + ": recoveries " + std::to_string(recovery_times.size()) +
            " != probe disruptions " + std::to_string(probe_disruptions));
  check(convergence_timeouts == 0,
        tag + ": convergence-timeout detector fired " +
            std::to_string(convergence_timeouts) + " times");
  for (const sim::Duration took : recovery_times) {
    check(took <= kConvergenceDeadline,
          tag + ": recovery took " + std::to_string(took) +
              " ns (> deadline)");
  }

  check(flow_cache_hits > 0, tag + ": flow cache never hit");
  check((flow_cache_stale > 0) == churned,
        tag + ": flow-cache stale hits disagree with the requested churn");

  if (report) {
    // Probe latency (RTT/2, merged over pairs) and recovery times for
    // the EXPERIMENTS.md churn table.
    stats::Histogram merged;
    for (int p = 0; p < kPairs; ++p) merged.merge(pairs[
        static_cast<std::size_t>(p)].probe->latency());
    sim::Duration worst_recovery = 0;
    double sum_recovery = 0;
    for (const sim::Duration took : recovery_times) {
      worst_recovery = std::max(worst_recovery, took);
      sum_recovery += static_cast<double>(took);
    }
    const std::size_t n_recovery = recovery_times.size();
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
        static_cast<unsigned long long>(probe_sent),
        static_cast<unsigned long long>(probe_retransmits),
        static_cast<unsigned long long>(probe_replies),
        static_cast<unsigned long long>(probe_abandoned),
        static_cast<unsigned long long>(bulk_sent),
        static_cast<unsigned long long>(dead_netns_drops),
        static_cast<unsigned long long>(unlearned_misses),
        static_cast<unsigned long long>(recovery_times.size()),
        static_cast<unsigned long long>(convergence_timeouts),
        static_cast<unsigned long long>(flow_cache_hits),
        static_cast<unsigned long long>(flow_cache_stale));
    harness::export_anomaly_trace(cluster.server(0).anomalies());
  }
  return snapshot;
}

// ================================================================== main

/// A rerun that must reproduce the reported run's snapshot.
struct Rerun {
  const char* label;
  bool pools = true;
  int threads = 1;
};

struct Profile {
  const char* name;
  const char* description;
  /// Runs the profile once on `threads` engine threads and returns its
  /// snapshot; `report` prints the profile's report.
  std::string (*run)(const Options&, int threads, bool report);
  bool takes_short;
  bool takes_churn_flags;  ///< --threads and --disruptions
  std::vector<Rerun> reruns;
};

const Profile kProfiles[] = {
    {"fault", "fault-rate sweep with per-class conservation checks",
     run_fault, false, false, {{"same seed"}, {"pools off", false}}},
    {"overload", "randomized overload soak with invariant monitors",
     run_overload, true, false, {{"same seed"}}},
    {"churn", "container lifecycle churn soak with invariant monitors",
     run_churn, true, true, {{"4 threads", true, 4}}},
};

constexpr const char* kUsage =
    "usage: chaos <fault|overload|churn> [seed] [--short] [--threads N]\n"
    "             [--snapshot FILE] [--disruptions N]\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

const Profile& parse_options(int argc, char** argv, Options& o) {
  if (argc < 2) usage_error("no profile given");
  const Profile* profile = nullptr;
  for (const Profile& p : kProfiles) {
    if (std::strcmp(argv[1], p.name) == 0) profile = &p;
  }
  if (profile == nullptr) {
    usage_error(std::string("unknown profile '") + argv[1] + "'");
  }
  const auto refuse_unless = [&](bool applies, const char* flag) {
    if (!applies) {
      usage_error(std::string(flag) + " does not apply to the " +
                  profile->name + " profile");
    }
  };
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // `--flag VALUE` or `--flag=VALUE`; nullptr when `arg` is another
    // flag.
    const auto value = [&](std::string_view flag) -> const char* {
      if (arg == flag) {
        if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
        return argv[++i];
      }
      if (arg.size() > flag.size() && arg.substr(0, flag.size()) == flag &&
          arg[flag.size()] == '=') {
        return argv[i] + flag.size() + 1;
      }
      return nullptr;
    };
    if (arg == "--short") {
      refuse_unless(profile->takes_short, "--short");
      o.shortened = true;
    } else if (const char* v = value("--threads")) {
      refuse_unless(profile->takes_churn_flags, "--threads");
      const long n = parse_long_or_die(v, "--threads");
      if (n < 1 || n > INT_MAX) usage_error("--threads: must be >= 1");
      o.threads = static_cast<int>(n);
    } else if (const char* v = value("--disruptions")) {
      refuse_unless(profile->takes_churn_flags, "--disruptions");
      o.disruptions =
          static_cast<int>(parse_long_or_die(v, "--disruptions"));
    } else if (const char* v = value("--snapshot")) {
      o.snapshot = v;
    } else {
      const long seed = parse_long_or_die(argv[i], "seed");
      if (seed < 1) usage_error("seed: " + std::to_string(seed) +
                                " must be >= 1");
      o.seed = static_cast<std::uint64_t>(seed);
    }
  }
  return *profile;
}

void set_pools(bool enabled) {
  kernel::SkbPool::instance().set_enabled(enabled);
  sim::BufferPool::instance().set_enabled(enabled);
}

int main_impl(int argc, char** argv) {
  Options o;
  const Profile& profile = parse_options(argc, argv, o);
  const std::string name = std::string("chaos ") + profile.name;
  print_header(name.c_str(), profile.description);

  // Pool-leak accounting needs the whole run on this thread: the pools
  // are thread-local.
  const int threads = o.threads > 0 ? o.threads : 1;
  const harness::PoolBaseline before = harness::PoolBaseline::capture();
  const std::string snapshot = profile.run(o, threads, /*report=*/true);
  if (threads == 1) harness::check_no_pool_leak(before, name);

  if (o.snapshot != nullptr) {
    std::ofstream out(o.snapshot, std::ios::binary);
    out << snapshot;
    out.close();
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", o.snapshot);
      return 2;
    }
    std::printf("wrote snapshot %s (%zu bytes)\n", o.snapshot,
                snapshot.size());
  }

  // Determinism: every rerun must reproduce the snapshot byte for byte.
  // An explicit --threads asks for one pass, compared across processes.
  if (o.threads == 0) {
    std::string labels;
    bool identical = true;
    for (const Rerun& rerun : profile.reruns) {
      set_pools(rerun.pools);
      const bool same =
          profile.run(o, rerun.threads, /*report=*/false) == snapshot;
      set_pools(true);
      check(same, std::string("determinism: ") + rerun.label +
                      ": snapshots differ");
      identical &= same;
      labels += (labels.empty() ? "" : ", ") + std::string(rerun.label);
    }
    std::printf("determinism: reran (%s), seed %llu -> %s (%zu bytes)\n\n",
                labels.c_str(), static_cast<unsigned long long>(o.seed),
                identical ? "identical snapshots" : "MISMATCH",
                snapshot.size());
  }

  if (harness::failures() == 0) {
    std::printf("%s: all monitors held (seed %llu)\n", name.c_str(),
                static_cast<unsigned long long>(o.seed));
    return 0;
  }
  std::printf("%s: %d monitor violation(s)\n", name.c_str(),
              harness::failures());
  return 1;
}

}  // namespace
}  // namespace prism::bench

int main(int argc, char** argv) {
  return prism::bench::main_impl(argc, argv);
}
