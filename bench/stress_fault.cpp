// Fault-injection stress sweep: drives the overlay pipeline through every
// fault mode at 1% / 10% / 50% rates and asserts the conservation
// invariant to the packet:
//
//     sends + injected duplicates == delivered + dropped-with-reason
//
// per priority class for payload-safe fault groups (loss, payload-only
// corruption, resource exhaustion, the mixed sweep), and at total level
// for the header-corrupt/truncate group (a frame whose classification
// bits were destroyed can only be attributed to class 0). Each scenario
// also checks that pool storage returns to baseline — no drop path leaks.
//
// The resource and mixed groups (the ones forcing ring-full/backlog-full
// episodes) run their sends compressed into an overload burst and assert
// recovery: every overload entry the episode provoked is matched by an
// exit (exits are only taken with the backlog back below the low
// watermark) and the governor ends the run in the normal state.
//
// A determinism pass re-runs one mixed scenario with the same seed (twice
// pooled, once with pools disabled) and requires bit-identical
// prism/faults and prism/overload snapshots.
//
// Usage: stress_fault [seed]   (default seed 1; CI sweeps several)
// Exit status is non-zero if any invariant fails — registered with ctest
// under the "stress" label.
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault.h"
#include "harness/testbed.h"
#include "kernel/skb_pool.h"
#include "sim/pool.h"
#include "stats/table.h"

namespace prism::bench {
namespace {

constexpr int kClasses = 3;
constexpr std::uint64_t kPerClass = 300;

struct RunResult {
  std::array<std::uint64_t, kClasses> received{};
  std::array<std::uint64_t, kClasses> duplicates{};
  std::array<std::uint64_t, kClasses> class_drops{};
  fault::FaultCounters counters;
  std::array<std::uint64_t, fault::kNumDropReasons> reason_totals{};
  std::uint64_t total_drops = 0;
  std::uint64_t ov_entries = 0;
  std::uint64_t ov_exits = 0;
  kernel::OverloadGovernor::State ov_state =
      kernel::OverloadGovernor::State::kNormal;
  std::string json;
  std::string overload_json;
};

/// One overlay scenario: three containers-to-container UDP streams, one
/// per priority class, pushed through a server armed with `fc`. With
/// `episode` the sends are compressed well past pipeline capacity so the
/// forced ring/backlog-full faults land during a genuine overload
/// episode the governor must enter and recover from.
RunResult run_scenario(const fault::FaultConfig& fc, bool episode = false) {
  harness::TestbedConfig cfg;
  cfg.mode = kernel::NapiMode::kPrismBatch;
  cfg.server_faults = fc;
  if (episode) {
    // The 900-packet burst spans ~3 full-budget softirq invocations;
    // enter on a 2-squeeze streak so the episode reliably trips the
    // governor (the default streak of 8 needs a longer soak).
    cfg.server_overload.squeeze_enter_streak = 2;
  }
  harness::Testbed tb(cfg);
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  std::array<kernel::UdpSocket*, kClasses> socks = {
      &tb.server().udp_bind(c2, 7000), &tb.server().udp_bind(c2, 7001),
      &tb.server().udp_bind(c2, 7002)};
  tb.server().priority_db().add(c2.ip(), 7001, 1);
  tb.server().priority_db().add(c2.ip(), 7002, 2);

  // Episode runs compress the schedule to ~1 Mpps and fan the sends
  // across every client TX CPU — a single client CPU's per-packet TX
  // cost would pace the burst below the server's capacity.
  const sim::Time spacing = episode ? 1'000 : 4'000;  // 1 Mpps vs 250 kpps
  const int tx_cpus = episode ? tb.client().num_cpus() - 1 : 1;
  for (std::uint64_t i = 0; i < kPerClass; ++i) {
    for (int cls = 0; cls < kClasses; ++cls) {
      const std::uint64_t n = i * kClasses + static_cast<std::uint64_t>(cls);
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

  RunResult r;
  const auto& layer = tb.server().faults();
  for (int cls = 0; cls < kClasses; ++cls) {
    r.received[cls] = socks[cls]->received();
    r.duplicates[cls] = layer.plan.duplicates_for_class(cls);
    r.class_drops[cls] = layer.drops.class_total(cls);
  }
  r.counters = layer.plan.counters();
  for (int reason = 0; reason < fault::kNumDropReasons; ++reason) {
    r.reason_totals[static_cast<std::size_t>(reason)] =
        layer.drops.total(static_cast<fault::DropReason>(reason));
  }
  r.total_drops = layer.drops.total_drops();
  r.ov_entries = tb.server().governor().entries();
  r.ov_exits = tb.server().governor().exits();
  r.ov_state = tb.server().governor().state();
  r.json = tb.server().proc().read("prism/faults");
  r.overload_json = tb.server().proc().read("prism/overload");
  return r;
}

std::string reason_breakdown(const RunResult& r) {
  std::string out;
  for (int reason = 0; reason < fault::kNumDropReasons; ++reason) {
    const auto n = r.reason_totals[static_cast<std::size_t>(reason)];
    if (n == 0) continue;
    if (!out.empty()) out += " ";
    out += fault::drop_reason_name(static_cast<fault::DropReason>(reason));
    out += "=" + std::to_string(n);
  }
  return out.empty() ? "-" : out;
}

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

void sweep(std::uint64_t seed) {
  stats::Table table(
      {"group", "rate", "sent", "dups", "delivered", "dropped", "reasons"});
  for (const auto& group : kGroups) {
    for (const double rate : {0.01, 0.10, 0.50}) {
      fault::FaultConfig fc;
      fc.seed = seed;
      group.apply(fc, rate);

      const PoolBaseline before = PoolBaseline::capture();
      const RunResult r = run_scenario(fc, group.episode);
      const PoolBaseline after = PoolBaseline::capture();

      const std::string tag = std::string(group.name) + " @ " +
                              pct(rate) + " seed=" + std::to_string(seed);
      check(after.skb_outstanding == before.skb_outstanding,
            tag + ": skb pool leak (" +
                std::to_string(after.skb_outstanding -
                               before.skb_outstanding) +
                " outstanding)");
      check(after.buf_outstanding == before.buf_outstanding,
            tag + ": buffer pool leak");

      std::uint64_t delivered = 0;
      std::uint64_t duplicates = 0;
      for (int cls = 0; cls < kClasses; ++cls) {
        delivered += r.received[cls];
        duplicates += r.duplicates[cls];
        if (!group.per_class) continue;
        const std::uint64_t injected = kPerClass + r.duplicates[cls];
        const std::uint64_t accounted =
            r.received[cls] + r.class_drops[cls];
        check(injected == accounted,
              tag + ": class " + std::to_string(cls) + " conservation " +
                  std::to_string(injected) + " != " +
                  std::to_string(accounted));
      }
      const std::uint64_t injected_total =
          kPerClass * kClasses + duplicates;
      check(injected_total == delivered + r.total_drops,
            tag + ": total conservation " + std::to_string(injected_total) +
                " != " + std::to_string(delivered + r.total_drops));

      // Recovery: whatever overload the scenario provoked must have
      // unwound by the end of the run — an exit is only taken with the
      // backlog back below the low watermark.
      check(r.ov_entries == r.ov_exits,
            tag + ": overload entries " + std::to_string(r.ov_entries) +
                " != exits " + std::to_string(r.ov_exits));
      check(r.ov_state == kernel::OverloadGovernor::State::kNormal,
            tag + ": governor did not recover to normal");
      // At 50% forced-fault rates half the burst dies at the injection
      // points and the surviving load no longer exceeds capacity, so
      // only the lower rates are required to provoke an episode.
      if (group.episode && rate < 0.5) {
        check(r.ov_entries >= 1,
              tag + ": burst episode never entered overload");
      }

      table.add_row({group.name, pct(rate), std::to_string(kPerClass * kClasses),
                     std::to_string(duplicates), std::to_string(delivered),
                     std::to_string(r.total_drops), reason_breakdown(r)});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

void determinism(std::uint64_t seed) {
  fault::FaultConfig fc;
  fc.seed = seed;
  for (const auto& group : kGroups) {
    if (std::string(group.name) == "mixed") group.apply(fc, 0.10);
  }
  const auto run = [&fc](bool pools) {
    kernel::SkbPool::instance().set_enabled(pools);
    sim::BufferPool::instance().set_enabled(pools);
    const RunResult r = run_scenario(fc, /*episode=*/true);
    return r.json + r.overload_json;
  };
  const std::string pooled_a = run(true);
  const std::string pooled_b = run(true);
  const std::string unpooled = run(false);
  kernel::SkbPool::instance().set_enabled(true);
  sim::BufferPool::instance().set_enabled(true);
  check(pooled_a == pooled_b,
        "determinism: same seed, pools on, snapshots differ");
  check(pooled_a == unpooled,
        "determinism: pools on vs off, snapshots differ");
  std::printf("determinism: 3 runs (2 pooled, 1 unpooled), seed %llu -> %s\n\n",
              static_cast<unsigned long long>(fc.seed),
              g_failures == 0 ? "bit-identical snapshots" : "MISMATCH");
}

int main_impl(int argc, char** argv) {
  std::uint64_t seed = 1;
  if (argc > 1) {
    const long v = parse_long_or_die(argv[1], "seed");
    if (v < 1) {
      std::fprintf(stderr, "error: seed: %ld must be >= 1\n", v);
      return 2;
    }
    seed = static_cast<std::uint64_t>(v);
  }
  print_header("stress_fault",
               "fault-rate sweep with per-class conservation checks");
  sweep(seed);
  determinism(seed);
  if (g_failures == 0) {
    std::printf("stress_fault: all conservation invariants held (seed %llu)\n",
                static_cast<unsigned long long>(seed));
    return 0;
  }
  std::printf("stress_fault: %d invariant violation(s)\n", g_failures);
  return 1;
}

}  // namespace
}  // namespace prism::bench

int main(int argc, char** argv) {
  return prism::bench::main_impl(argc, argv);
}
