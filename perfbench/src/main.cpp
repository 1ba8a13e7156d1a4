// perfbench: the repository benchmark.
//
//   prismbench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE] [--inject-fingerprint-mismatch]
//
// Untraced (--trace 0): repeats the workload (construct, simulated
// warm-up, timed measured window, drain) until S wall seconds have
// passed, and reports the end-to-end metrics: host packets/s over the
// measured window (median over its slices) and set-up time (median over
// repetitions), both at reference host speed (reference.h); peak RSS;
// and the simulated results of the paper's scenario.
//
// Traced (--trace 1): the same repetitions untraced as the baseline,
// then telemetry on/off pairs, traced repetitions (benchmark-phase spans,
// lane profiler), a 1-thread cluster run, and replay loops; it reports
// the per-layer metrics and writes the spans as one Chrome trace file.
//
// Every repetition must reproduce the same determinism fingerprint and
// conserve every packet; any failure prints the reason, marks the result
// incorrect and exits 1. The last stdout line is the JSON result.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "kernel/napi.h"
#include "overlay/flow_cache.h"
#include "reference.h"
#include "replay.h"
#include "sim/lane_profiler.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using prism::sim::LaneProfiler;

constexpr int kMinReps = 3;
/// Pairs (and 1-thread repetitions) in the traced run's extra arms. Kept
/// small so a traced cluster_lanes run stays well inside three minutes
/// even when the shared host runs 3x slow.
constexpr int kTracedPairs = 2;
constexpr int kMaxReps = 1000;
/// The measured window must hold enough latency samples that ten lie
/// beyond the reported p99.
constexpr std::uint64_t kMinHiSamples = 1000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  Workload workload = Workload::kUdpOverlay;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool inject_mismatch = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-fingerprint-mismatch") {
      a.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      if (!parse_workload(v, a.workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 3600)) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// CPUs this process may run on (what `nproc` prints).
int online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Pins the process to the highest-numbered CPU it may use, so a
/// single-engine workload is never migrated mid-window. Returns the CPU,
/// or -1 when pinning failed (the run continues unpinned).
int pin_to_one_cpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// Peak resident set (VmHWM) of this process, MiB; 0 when unavailable.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Benchmark-phase spans (repetitions, their construct / warm-up / window
/// / drain phases, replay loops), kept in memory and written once, as a
/// Chrome trace, at exit. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int begin(const std::string& name, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, now_us(), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   i ? "," : "", s.name.c_str(), s.start_us,
                   std::max(0.0, s.end_us - s.start_us), i, s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0;
    double end_us = 0;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct LaneStats {
  double busy_frac = 0;
  double barrier_frac = 0;
  double idle_frac = 0;
  double imbalance = 0;
  double wall_ns_per_window = 0;
};

struct Rep {
  double construct_s = 0;
  double warmup_s = 0;
  double window_s = 0;
  /// Packets per wall second of each slice of the measured window.
  std::vector<double> slice_pps;
  Counts window;  ///< work done inside the measured window
  std::size_t queue_depth = 0;
  double util = 0;
  Outcome out;
};

/// One scenario run. `log` may be null (untraced); `lanes` receives the
/// lane profiler's window-only split when the scenario has one; a
/// non-empty `lane_trace` receives the profiled rounds.
Rep run_rep(Workload w, const Options& opt, SpanLog* log, const char* label,
            LaneStats* lanes = nullptr, const std::string& lane_trace = {}) {
  SpanLog off(false);
  SpanLog& l = log ? *log : off;
  Rep r;
  const int rep_span = l.begin(label);

  const auto t0 = Clock::now();
  int s = l.begin("construct", rep_span);
  Scenario sc(w, opt);
  l.end(s);
  const auto t1 = Clock::now();
  const Phases& ph = sc.phases();
  s = l.begin("warmup", rep_span);
  sc.run_until(ph.warmup_end);
  l.end(s);
  const auto t2 = Clock::now();

  const Counts a = sc.counts();
  sc.begin_util_window(ph.warmup_end);
  LaneProfiler* prof = sc.lane_profiler();
  if (prof != nullptr) prof->reset();

  // The window runs as equal slices of simulated time; each slice's
  // packets per wall second is one throughput sample.
  s = l.begin("window", rep_span);
  const auto t3 = Clock::now();
  auto slice_start = t3;
  std::uint64_t slice_pkts = a.app_pkts;
  for (int k = 1; k <= ph.window_slices; ++k) {
    sc.run_until(ph.warmup_end +
                 (ph.window_end - ph.warmup_end) * k / ph.window_slices);
    const auto now = Clock::now();
    const std::uint64_t pkts = sc.app_pkts();
    r.slice_pps.push_back(
        static_cast<double>(pkts - slice_pkts) /
        std::chrono::duration<double>(now - slice_start).count());
    slice_start = now;
    slice_pkts = pkts;
  }
  const auto t4 = Clock::now();
  l.end(s);

  const Counts b = sc.counts();
  r.util = sc.util(ph.window_end);
  r.window = delta(a, b);
  r.queue_depth = (a.pending_events + b.pending_events) / 2;
  if (prof != nullptr && lanes != nullptr) {
    double wall = 0, busy = 0, barrier = 0, idle = 0, rounds = 0;
    for (int i = 0; i < prof->num_workers(); ++i) {
      const LaneProfiler::WorkerTotals& wt = prof->worker(i);
      wall += static_cast<double>(wt.wall_ns);
      busy += static_cast<double>(wt.busy_ns);
      barrier += static_cast<double>(wt.barrier_wait_ns);
      idle += static_cast<double>(wt.idle_ns());
      rounds += static_cast<double>(wt.rounds);
    }
    lanes->busy_frac = ratio(busy, wall);
    lanes->barrier_frac = ratio(barrier, wall);
    lanes->idle_frac = ratio(idle, wall);
    lanes->imbalance = prof->busy_imbalance();
    lanes->wall_ns_per_window = ratio(wall, rounds);
  }

  s = l.begin("drain", rep_span);
  sc.run_until(ph.drain_end);
  l.end(s);
  r.out = sc.outcome();
  if (!lane_trace.empty() && !sc.export_lane_trace(lane_trace)) {
    std::fprintf(stderr, "prismbench: cannot write %s\n", lane_trace.c_str());
  }
  l.end(rep_span);

  r.construct_s = std::chrono::duration<double>(t1 - t0).count();
  r.warmup_s = std::chrono::duration<double>(t2 - t1).count();
  r.window_s = std::chrono::duration<double>(t4 - t3).count();
  return r;
}

/// Collects failed checks; any failure makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      std::printf("FAIL: %s\n", what.c_str());
    }
  }
};

/// Share of sent packets neither delivered nor counted dropped, over the
/// three conservation identities (per class at the application, per frame
/// on the wire, per byte on TCP streams). 0 when every packet is
/// accounted for.
double unaccounted_frac(const Outcome& o) {
  double worst = 0;
  const auto gap = [&worst](std::uint64_t sent, std::uint64_t accounted) {
    if (sent == accounted) return;
    const double diff = std::fabs(static_cast<double>(sent) -
                                  static_cast<double>(accounted));
    worst = std::max(worst, sent == 0 ? 1.0 : diff / static_cast<double>(sent));
  };
  for (std::size_t c = 0; c < o.class_sent.size(); ++c) {
    gap(o.class_sent[c], o.class_accounted[c]);
  }
  gap(o.frames_sent, o.frames_accounted);
  gap(o.stream_bytes_written, o.stream_bytes_delivered);
  return worst;
}

/// Checks one repetition against the reference fingerprint and the
/// per-run invariants.
void check_rep(Checks& checks, const Rep& r, std::uint64_t reference,
               const std::string& what) {
  char fp[64];
  std::snprintf(fp, sizeof(fp), "%016llx vs %016llx",
                static_cast<unsigned long long>(r.out.fingerprint),
                static_cast<unsigned long long>(reference));
  checks.expect(r.out.fingerprint == reference,
                "FINGERPRINT MISMATCH (" + what + "): " + fp);
  checks.expect(unaccounted_frac(r.out) == 0,
                "conservation (" + what + "): unaccounted packets");
  checks.expect(r.out.hi_latency.count() >= kMinHiSamples,
                "latency-sensitive flow has fewer than 1000 samples (" +
                    what + ")");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

int run(const Args& args) {
  const Workload w = args.workload;
  const int nproc = online_cpus();
  const int threads =
      w == Workload::kClusterLanes ? std::clamp(nproc, 1, 4) : 1;
  // The lane workers of cluster_lanes need every CPU; the single-engine
  // workloads run on one, pinned.
  const int pinned = threads == 1 ? pin_to_one_cpu() : -1;
  const Phases ph = phases_of(w);
  const double window_sim_s = prism::sim::to_s(ph.window_end - ph.warmup_end);

  std::printf("prismbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(w), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf(
      "host hardware_concurrency=%u nproc=%d threads=%d pinned_cpu=%d  "
      "build "
      "PRISM_TELEMETRY=%d PRISM_FAULTS=%d PRISM_OVERLOAD=%d "
      "PRISM_FLOWCACHE=%d\n",
      std::thread::hardware_concurrency(), nproc, threads, pinned,
      PRISM_TELEMETRY_ENABLED, PRISM_FAULTS_ENABLED, PRISM_OVERLOAD_ENABLED,
      PRISM_FLOWCACHE_ENABLED);

  Options opt;
  opt.seed = args.seed;
  opt.threads = threads;
  Checks checks;
  SpanLog log(args.trace);
  std::vector<Metric> metrics;

  // ---- untraced repetitions: the end-to-end numbers, or (traced run)
  // the baseline the traced arms are compared against.
  const double untraced_budget = args.trace ? args.seconds / 3 : args.seconds;
  std::vector<Rep> reps;
  std::vector<double> reference_s{reference_loop_seconds(threads)};
  const auto start = Clock::now();
  while (static_cast<int>(reps.size()) < kMinReps ||
         (seconds_since(start) < untraced_budget &&
          static_cast<int>(reps.size()) < kMaxReps)) {
    reps.push_back(run_rep(w, opt, nullptr, "rep"));
    reference_s.push_back(reference_loop_seconds(threads));
    // Self-test hook: corrupt one repetition's fingerprint, which the
    // checks below must report.
    if (args.inject_mismatch && reps.size() == 2) reps[1].out.fingerprint ^= 1;
  }
  const Rep& ref = reps.front();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    std::printf("rep %zu construct=%.6fs warmup=%.6fs window=%.6fs pkts=%llu\n",
                i, r.construct_s, r.warmup_s, r.window_s,
                static_cast<unsigned long long>(r.window.app_pkts));
    check_rep(checks, r, ref.out.fingerprint,
              "repetition " + std::to_string(i));
  }
  std::vector<Rep> single;  // cluster_lanes at 1 thread
  if (w == Workload::kClusterLanes) {
    Options one = opt;
    one.threads = 1;
    const int n = args.trace ? kTracedPairs : 1;
    for (int i = 0; i < n; ++i) {
      single.push_back(run_rep(w, one, &log, "rep.1thread"));
      check_rep(checks, single.back(), ref.out.fingerprint,
                "1 thread vs " + std::to_string(threads));
    }
  }
  std::printf("fingerprint=%016llx repetitions=%zu\n",
              static_cast<unsigned long long>(ref.out.fingerprint),
              reps.size());

  std::vector<double> window_s, setup_s, construct_s, warmup_s;
  std::uint64_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    window_s.push_back(r.window_s);
    setup_s.push_back(r.construct_s + r.warmup_s);
    construct_s.push_back(r.construct_s);
    warmup_s.push_back(r.warmup_s);
    attempted += r.out.hi_sent;
    failed += r.out.hi_sent - r.out.hi_answered;
  }
  const Counts& c = ref.window;
  const double pkts = static_cast<double>(c.app_pkts);
  const std::string n_reps = "n=" + std::to_string(reps.size());
  // How much slower than the reference speed the host ran (> 1 = slower).
  const double slowdown = median(reference_s) / reference_seconds(threads);
  std::printf("reference_loop=%.6fs (median of %zu) host_slowdown=%.4f\n",
              median(reference_s), reference_s.size(), slowdown);

  if (!args.trace) {
    std::vector<double> pps;
    for (const Rep& r : reps) {
      pps.insert(pps.end(), r.slice_pps.begin(), r.slice_pps.end());
    }
    std::printf("raw sim_pkts_per_s=%.17g setup_s=%.17g\n", median(pps),
                median(setup_s));
    const prism::stats::Histogram& hi = ref.out.hi_latency;
    const std::string n_hi = "n=" + std::to_string(hi.count());
    metrics = {
        {"sim_pkts_per_s", median(pps) * slowdown, "1/s",
         "n=" + std::to_string(pps.size()) + " slices"},
        {"setup_s", median(setup_s) / slowdown, "s", n_reps},
        {"peak_rss_mib", peak_rss_mib(), "MiB", ""},
        {"hi_p50_sim_us", interpolated_percentile(hi, 0.50) / 1e3, "us", n_hi},
        {"hi_p99_sim_us", interpolated_percentile(hi, 0.99) / 1e3, "us", n_hi},
        {"bulk_goodput_sim_mbps",
         static_cast<double>(c.bulk_bytes) * 8.0 / window_sim_s / 1e6,
         "Mbit/s", ""},
    };
  } else {
    // ---- telemetry on/off pairs, interleaved (ABBA) so drift hits both.
    std::vector<double> cost;
    const auto pairs_start = Clock::now();
    for (int i = 0; i < kTracedPairs || (seconds_since(pairs_start) <
                                         args.seconds / 3 &&
                                     i < kMaxReps);
         ++i) {
      Options off = opt;
      off.telemetry = false;
      Rep on_rep, off_rep;
      if (i % 2 == 0) {
        on_rep = run_rep(w, opt, &log, "telemetry.on");
        off_rep = run_rep(w, off, &log, "telemetry.off");
      } else {
        off_rep = run_rep(w, off, &log, "telemetry.off");
        on_rep = run_rep(w, opt, &log, "telemetry.on");
      }
      check_rep(checks, off_rep, ref.out.fingerprint, "telemetry off");
      check_rep(checks, on_rep, ref.out.fingerprint, "telemetry on");
      cost.push_back(ratio(on_rep.window_s - off_rep.window_s,
                           on_rep.window_s));
    }

    // ---- traced repetitions (spans + lane profiler), each paired with an
    // untraced one, in alternating order.
    Options traced = opt;
    traced.lane_profiler = true;
    LaneStats lanes;
    std::vector<double> trace_overhead;
    for (int i = 0; i < kTracedPairs; ++i) {
      const std::string lane_trace =
          i == 0 && w == Workload::kClusterLanes && !args.trace_out.empty()
              ? args.trace_out + ".lanes.json"
              : std::string();
      Rep plain, with;
      const auto run_plain = [&] { plain = run_rep(w, opt, nullptr, "rep"); };
      const auto run_traced = [&] {
        with = run_rep(w, traced, &log, "traced", i == 0 ? &lanes : nullptr,
                       lane_trace);
      };
      if (i % 2 == 0) {
        run_plain();
        run_traced();
      } else {
        run_traced();
        run_plain();
      }
      check_rep(checks, plain, ref.out.fingerprint, "untraced");
      check_rep(checks, with, ref.out.fingerprint, "traced");
      trace_overhead.push_back(ratio(with.window_s, plain.window_s) - 1.0);
    }

    // ---- replay loops on the workload's own shapes.
    const std::size_t payload = ph.bulk_frame_payload;
    const auto replay = [&log](const char* name,
                               const std::function<double()>& fn) {
      const int s = log.begin(std::string("replay.") + name);
      const double v = fn();
      log.end(s);
      return v;
    };
    const double event_ns =
        replay("event", [&] { return replay_event_ns(ref.queue_depth); });
    const double pool_ns =
        replay("pool", [&] { return replay_pool_cycle_ns(payload); });
    const double parse_ns =
        replay("parse", [&] { return replay_parse_ns(payload, ph.tcp); });
    const double encap_ns = replay(
        "vxlan_encap", [&] { return replay_vxlan_encap_ns(payload, ph.tcp); });
    const double csum_ns_kb =
        replay("csum", [&] { return replay_csum_ns_per_kb(payload); });
    const double fdb_ns =
        replay("fdb_lookup", [&] { return replay_fdb_lookup_ns(2); });
    const double ledger_ns =
        replay("ledger_record", [&] { return replay_ledger_record_ns(); });
    const double flowtable_ns = replay("flowtable_record", [&] {
      return replay_flowtable_record_ns(ph.tcp ? 2 : 3);
    });

    // Pool counters are per thread; the 1-thread cluster run keeps every
    // lane's allocations on this thread, so its counts are exact.
    const Counts& pool = single.empty() ? c : single.front().window;
    const double pool_pkts = static_cast<double>(pool.app_pkts);
    const double untraced_window = median(window_s);
    const bool cluster = w == Workload::kClusterLanes;
    std::vector<double> single_window;
    for (const Rep& r : single) single_window.push_back(r.window_s);

    const double events_per_pkt = ratio(static_cast<double>(c.events), pkts);
    const double rx_per_pkt = ratio(static_cast<double>(c.nic_rx), pkts);
    const double tx_per_pkt = ratio(static_cast<double>(c.nic_tx), pkts);
    const double fwd_per_pkt = ratio(static_cast<double>(c.bridge_fwd), pkts);
    const double delivered_per_pkt =
        ratio(static_cast<double>(c.sock_delivered), pkts);
    const double ledger_per_pkt =
        ratio(static_cast<double>(c.ledger_deliveries), pkts);
    const double explained_ns =
        events_per_pkt * event_ns +
        rx_per_pkt * (parse_ns + pool_ns +
                      2.0 * csum_ns_kb * static_cast<double>(payload) / 1024) +
        tx_per_pkt * encap_ns + fwd_per_pkt * fdb_ns +
        ledger_per_pkt * ledger_ns + delivered_per_pkt * flowtable_ns;
    const double window_ns_per_pkt = ratio(untraced_window * 1e9, pkts);
    const Outcome& o = ref.out;

    metrics = {
        {"sim.events_per_pkt", events_per_pkt, "count", ""},
        {"sim.ns_per_event", event_ns, "ns",
         "depth=" + std::to_string(ref.queue_depth)},
        {"sim.lane.windows_per_sim_ms",
         ratio(static_cast<double>(c.lane_windows), window_sim_s * 1e3),
         "1/ms", ""},
        {"sim.lane.msgs_per_pkt", ratio(static_cast<double>(c.lane_msgs), pkts),
         "count", ""},
        {"sim.lane.inbox_spills", static_cast<double>(c.lane_spills), "count",
         ""},
        {"sim.lane.busy_frac", lanes.busy_frac, "fraction", ""},
        {"sim.lane.barrier_wait_frac", lanes.barrier_frac, "fraction", ""},
        {"sim.lane.idle_frac", lanes.idle_frac, "fraction", ""},
        {"sim.lane.busy_imbalance", lanes.imbalance, "ratio", ""},
        {"sim.lane.wall_ns_per_window", lanes.wall_ns_per_window, "ns", ""},
        {"sim.lane.speedup_vs_1thread",
         cluster ? ratio(median(single_window), untraced_window) : 0.0,
         "ratio", cluster ? "n=" + std::to_string(single.size()) : ""},
        {"kernel.skb_pool.alloc_per_kpkt",
         ratio(static_cast<double>(pool.skb_allocs) * 1e3, pool_pkts), "count",
         ""},
        {"sim.pool.buf_alloc_per_kpkt",
         ratio(static_cast<double>(pool.buf_allocs) * 1e3, pool_pkts), "count",
         ""},
        {"sim.pool.ns_per_cycle", pool_ns, "ns", ""},
        {"nic.rx_frames_per_pkt", rx_per_pkt, "count", ""},
        {"nic.gro_merged_per_kframe",
         ratio(static_cast<double>(c.gro_merged) * 1e3,
               static_cast<double>(c.nic_rx)),
         "count", ""},
        {"nic.irqs_per_kpkt", ratio(static_cast<double>(c.irqs) * 1e3, pkts),
         "count", ""},
        {"nic.ring_drop_frac",
         ratio(static_cast<double>(c.ring_drops),
               static_cast<double>(c.nic_rx)),
         "fraction", ""},
        {"nic.ring_depth_max", static_cast<double>(c.ring_depth_max), "count",
         ""},
        {"kernel.napi.polls_per_kpkt",
         ratio(static_cast<double>(c.polls) * 1e3, pkts), "count", ""},
        {"kernel.napi.pkts_per_poll",
         ratio(static_cast<double>(c.poll_pkts), static_cast<double>(c.polls)),
         "count", ""},
        {"kernel.napi.softirqs_per_kpkt",
         ratio(static_cast<double>(c.softirqs) * 1e3, pkts), "count", ""},
        {"kernel.napi.time_squeeze_per_kpkt",
         ratio(static_cast<double>(c.time_squeeze) * 1e3, pkts), "count", ""},
        {"kernel.napi.requeues_per_kpkt",
         ratio(static_cast<double>(c.requeues) * 1e3, pkts), "count", ""},
        {"kernel.napi.head_inserts_per_kpkt",
         ratio(static_cast<double>(c.head_inserts) * 1e3, pkts), "count", ""},
        {"kernel.napi.rx_cpu_util_sim", ref.util, "fraction", ""},
        {"kernel.softnet.backlog_enq_per_pkt",
         ratio(static_cast<double>(c.backlog_enq), pkts), "count", ""},
        {"kernel.softnet.backlog_depth_max",
         static_cast<double>(c.backlog_depth_max), "count", ""},
        {"overlay.bridge.fwd_per_pkt", fwd_per_pkt, "count", ""},
        {"overlay.bridge.cell_enq_per_pkt",
         ratio(static_cast<double>(c.cell_enq), pkts), "count", ""},
        {"overlay.bridge.fdb_drops", static_cast<double>(c.fdb_drops), "count",
         ""},
        {"overlay.flowcache.hit_frac",
         ratio(static_cast<double>(c.fc_hits),
               static_cast<double>(c.fc_hits + c.fc_misses)),
         "fraction", ""},
        {"overlay.flowcache.invalidations",
         static_cast<double>(c.fc_invalidations), "count", ""},
        {"overlay.fdb.lookup_ns", fdb_ns, "ns", ""},
        {"kernel.socket.delivered_per_pkt", delivered_per_pkt, "count", ""},
        {"kernel.socket.rcvbuf_drops", static_cast<double>(c.rcvbuf_drops),
         "count", ""},
        {"kernel.socket.rcvbuf_depth_max",
         static_cast<double>(c.rcvbuf_depth_max), "count", ""},
        {"kernel.tcp.acks_per_msg",
         ratio(static_cast<double>(c.acks), static_cast<double>(c.app_msgs)),
         "count", ""},
        {"kernel.tcp.retransmissions",
         static_cast<double>(c.tcp_retransmissions), "count", ""},
        {"net.parse_ns_per_frame", parse_ns, "ns", ""},
        {"net.vxlan_encap_ns", encap_ns, "ns", ""},
        {"net.csum_ns_per_kb", csum_ns_kb, "ns/KiB", ""},
        {"telemetry.cost_frac", median(cost), "fraction",
         "pairs=" + std::to_string(cost.size())},
        {"telemetry.flight_events_per_kpkt",
         ratio(static_cast<double>(c.flight_events) * 1e3, pkts), "count", ""},
        {"telemetry.ledger_deliveries_per_pkt", ledger_per_pkt, "count", ""},
        {"telemetry.ledger_record_ns", ledger_ns, "ns", ""},
        {"telemetry.flowtable_record_ns", flowtable_ns, "ns", ""},
        {"apps.gen_skipped_frac",
         ratio(static_cast<double>(c.gen_skipped),
               static_cast<double>(c.gen_sent + c.gen_skipped)),
         "fraction", ""},
        {"harness.construct_ms", median(construct_s) * 1e3, "ms", n_reps},
        {"harness.warmup_ms", median(warmup_s) * 1e3, "ms", n_reps},
        {"harness.trace_overhead_frac", median(trace_overhead), "fraction",
         "pairs=" + std::to_string(trace_overhead.size())},
        {"host.unattributed_ns_per_pkt", window_ns_per_pkt - explained_ns, "ns",
         ""},
        {"host.reference_loop_ms", median(reference_s) * 1e3, "ms",
         "n=" + std::to_string(reference_s.size())},
        {"hi_failed_frac",
         ratio(static_cast<double>(o.hi_sent - o.hi_answered),
               static_cast<double>(o.hi_sent)),
         "fraction", ""},
        {"unaccounted_frac", unaccounted_frac(o), "fraction", ""},
    };
    if (!args.trace_out.empty() && !log.write(args.trace_out)) {
      std::fprintf(stderr, "prismbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  bool finite = true;
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %.17g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
    finite = finite && std::isfinite(m.value);
  }
  checks.expect(finite, "a metric is not finite");
  const bool correct = checks.failures.empty();

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            (std::isfinite(metrics[i].value) ? value : "null") +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "prismbench: refusing to report from an unoptimized "
                       "build\n");
  return 3;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "prismbench: refusing to report from a sanitizer "
                       "build\n");
  return 3;
#endif
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: prismbench --workload udp_overlay|tcp_web_vanilla|"
                 "cluster_lanes --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--inject-fingerprint-mismatch]\n");
    return 2;
  }
  return perfbench::run(args);
}
