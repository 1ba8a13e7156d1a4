#include "harness/cluster.h"

#include <stdexcept>

#include "sim/lane_profiler.h"
#include "telemetry/json_writer.h"
#include "telemetry/latency.h"
#include "telemetry/rollup.h"

namespace prism::harness {

namespace {

/// The cluster's pairs, each a Testbed built from `config`. The pair
/// count is checked before any pair is built.
std::vector<std::unique_ptr<Testbed>> build_pairs(
    const ClusterConfig& config) {
  if (config.pairs < 1) {
    throw std::invalid_argument("Cluster: pairs must be at least 1");
  }
  std::vector<std::unique_ptr<Testbed>> pairs;
  pairs.reserve(static_cast<std::size_t>(config.pairs));
  for (int p = 0; p < config.pairs; ++p) {
    pairs.push_back(std::make_unique<Testbed>(config));
  }
  return pairs;
}

std::vector<sim::Simulator*> sims_of(
    const std::vector<std::unique_ptr<Testbed>>& pairs) {
  std::vector<sim::Simulator*> sims;
  sims.reserve(pairs.size());
  for (const auto& tb : pairs) sims.push_back(&tb->sim());
  return sims;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : pairs_(build_pairs(config)), lanes_(sims_of(pairs_)) {}

Cluster::~Cluster() {
  // The engine borrows the profiler; detach before it is destroyed.
  lanes_.set_profiler(nullptr);
}

sim::LaneProfiler& Cluster::enable_lane_profiler() {
  if (!profiler_) {
    profiler_ = std::make_unique<sim::LaneProfiler>();
    lanes_.set_profiler(profiler_.get());
  }
  return *profiler_;
}

void Cluster::export_lane_trace(telemetry::SpanTracer& tracer) const {
  if (profiler_) telemetry::export_lane_trace(*profiler_, tracer);
}

std::string Cluster::proc_read(std::string_view path) {
  if (path == "prism/lanes") return telemetry::lanes_json(profiler_.get());
  if (path == "prism/cluster") return cluster_json();
  if (path == "prism/telemetry/index") {
    std::string out;
    for (const std::string& p : proc_paths()) {
      out += p;
      out += '\n';
    }
    return out;
  }
  return "";
}

std::vector<std::string> Cluster::proc_paths() const {
  return {"prism/cluster", "prism/lanes", "prism/telemetry/index"};
}

std::string Cluster::cluster_json() {
  telemetry::JsonWriter w;
  w.begin_object();
  w.member("pairs", static_cast<std::int64_t>(pairs()));
  w.member("hosts", static_cast<std::int64_t>(num_hosts()));

  std::vector<const telemetry::Registry*> regs;
  std::vector<const telemetry::LatencyLedger*> ledgers;
  std::vector<const telemetry::AnomalyBank*> banks;
  regs.reserve(static_cast<std::size_t>(num_hosts()));
  ledgers.reserve(static_cast<std::size_t>(num_hosts()));
  banks.reserve(static_cast<std::size_t>(num_hosts()));
  for (int i = 0; i < pairs(); ++i) {
    regs.push_back(&client(i).metrics());
    regs.push_back(&server(i).metrics());
    ledgers.push_back(&client(i).latency_ledger());
    ledgers.push_back(&server(i).latency_ledger());
    banks.push_back(&client(i).anomalies());
    banks.push_back(&server(i).anomalies());
  }
  w.key("registry");
  telemetry::write_merged_registry_json(w, regs);
  w.key("latency");
  telemetry::write_merged_latency_json(w, ledgers);
  w.key("anomalies");
  telemetry::write_merged_anomalies_json(w, banks);

  w.key("pair_summaries").begin_array();
  for (int i = 0; i < pairs(); ++i) {
    kernel::Host& cli = client(i);
    kernel::Host& srv = server(i);
    w.begin_object();
    w.member("pair", static_cast<std::int64_t>(i));
    w.member("client", cli.name());
    w.member("server", srv.name());
    // Both endpoints' ledgers summed: the pair's whole loss budget.
    w.key("drops").begin_object();
    std::uint64_t total = 0;
    for (int r = 0; r < fault::kNumDropReasons; ++r) {
      total += cli.faults().drops.total(static_cast<fault::DropReason>(r)) +
               srv.faults().drops.total(static_cast<fault::DropReason>(r));
    }
    w.member("total", total);
    w.key("by_reason").begin_object();
    for (int r = 0; r < fault::kNumDropReasons; ++r) {
      const auto reason = static_cast<fault::DropReason>(r);
      const std::uint64_t n = cli.faults().drops.total(reason) +
                              srv.faults().drops.total(reason);
      if (n != 0) w.member(fault::drop_reason_name(reason), n);
    }
    w.end_object();
    w.key("by_class").begin_array();
    for (int c = 0; c < fault::kNumFaultClasses; ++c) {
      w.value(cli.faults().drops.class_total(c) +
              srv.faults().drops.class_total(c));
    }
    w.end_array();
    w.end_object();
    // The server is the loaded end (clients spread flows over all
    // cores); its governor is the pair's overload story.
    const kernel::OverloadGovernor& gov = srv.governor();
    w.key("overload")
        .begin_object()
        .member("state", kernel::to_string(gov.state()))
        .member("entries", gov.entries())
        .member("exits", gov.exits())
        .member("livelocks", gov.livelocks())
        .end_object();
    w.end_object();
  }
  w.end_array();

  w.key("engine")
      .begin_object()
      .member("lanes", static_cast<std::int64_t>(lanes_.num_lanes()))
      .end_object();
  w.key("lanes");
  telemetry::write_lanes_json(w, profiler_.get());
  w.end_object();
  return w.take();
}

}  // namespace prism::harness
