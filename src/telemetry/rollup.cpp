#include "telemetry/rollup.h"

#include <array>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/lane_profiler.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "telemetry/json_writer.h"
#include "telemetry/span_tracer.h"

namespace prism::telemetry {

std::vector<CounterSample> merge_counters(
    const std::vector<const Registry*>& registries) {
  std::vector<CounterSample> merged;
  std::unordered_map<std::string, std::size_t> index;
  for (const Registry* r : registries) {
    if (r == nullptr) continue;
    for (const CounterSample& c : r->counters()) {
      const auto [it, fresh] = index.emplace(c.name, merged.size());
      if (fresh) {
        merged.push_back(c);
      } else {
        merged[it->second].value += c.value;
      }
    }
  }
  return merged;
}

std::vector<GaugeSample> merge_gauges(
    const std::vector<const Registry*>& registries) {
  std::vector<GaugeSample> merged;
  std::unordered_map<std::string, std::size_t> index;
  for (const Registry* r : registries) {
    if (r == nullptr) continue;
    for (const GaugeSample& g : r->gauges()) {
      const auto [it, fresh] = index.emplace(g.name, merged.size());
      if (fresh) {
        merged.push_back(g);
      } else {
        GaugeSample& m = merged[it->second];
        m.value += g.value;
        m.max_value += g.max_value;
      }
    }
  }
  return merged;
}

void write_merged_registry_json(
    JsonWriter& w, const std::vector<const Registry*>& registries) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& c : merge_counters(registries)) w.member(c.name, c.value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : merge_gauges(registries)) {
    w.key(g.name)
        .begin_object()
        .member("value", g.value)
        .member("max", g.max_value)
        .end_object();
  }
  w.end_object();
  w.end_object();
}

void write_merged_latency_json(
    JsonWriter& w, const std::vector<const LatencyLedger*>& ledgers) {
  // Merge cell by cell so fleet percentiles come out of one combined
  // distribution. (stage, class) keys keep the stage-major order
  // write_latency_json uses. std::map: a handful of cells, cold path.
  std::map<std::pair<int, int>, stats::Histogram> cells;
  std::uint64_t unattributed = 0;
  std::uint64_t dropped_in_flight = 0;
  std::size_t hosts = 0;
  for (const LatencyLedger* l : ledgers) {
    if (l == nullptr) continue;
    ++hosts;
    unattributed += l->unattributed();
    dropped_in_flight += l->dropped_in_flight();
    for (int s = 0; s < kNumLatencyStages; ++s) {
      for (int c = 0; c < kNumLatencyClasses; ++c) {
        const stats::Histogram& h =
            l->histogram(static_cast<LatencyStage>(s), c);
        if (h.count() == 0) continue;
        auto [it, fresh] = cells.try_emplace(
            std::make_pair(s, c), stats::Histogram(h.sub_bucket_bits()));
        it->second.merge(h);
      }
    }
  }
  w.begin_object();
  w.member("hosts", static_cast<std::uint64_t>(hosts));
  w.member("unattributed", unattributed);
  w.member("dropped_in_flight", dropped_in_flight);
  w.key("stages").begin_array();
  for (const auto& [key, h] : cells) {
    const stats::LatencySummary s = stats::summarize(h);
    w.begin_object();
    w.member("stage",
             latency_stage_name(static_cast<LatencyStage>(key.first)));
    w.member("class", static_cast<std::int64_t>(key.second));
    w.member("count", s.count);
    w.member("min_ns", s.min_ns);
    w.member("mean_ns", s.mean_ns);
    w.member("p50_ns", s.p50_ns);
    w.member("p90_ns", s.p90_ns);
    w.member("p99_ns", s.p99_ns);
    w.member("max_ns", s.max_ns);
    w.member("sum_ns", h.sum());
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_merged_anomalies_json(
    JsonWriter& w, const std::vector<const AnomalyBank*>& banks) {
  constexpr auto kKinds = static_cast<std::size_t>(AnomalyKind::kCount);
  std::array<std::uint64_t, kKinds> fired{};
  std::uint64_t findings = 0;
  std::uint64_t findings_dropped = 0;
  sim::Duration worst_wait = 0;
  const AnomalyBank* worst_bank = nullptr;
  std::size_t hosts = 0;
  for (const AnomalyBank* b : banks) {
    if (b == nullptr) continue;
    ++hosts;
    for (std::size_t k = 0; k < kKinds; ++k) {
      fired[k] += b->fired(static_cast<AnomalyKind>(k));
    }
    findings += b->findings().size();
    findings_dropped += b->findings_dropped();
    if (b->max_inversion_wait_ns() > worst_wait) {
      worst_wait = b->max_inversion_wait_ns();
      worst_bank = b;
    }
  }
  w.begin_object();
  w.member("hosts", static_cast<std::uint64_t>(hosts));
  w.key("fired").begin_object();
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    w.member(anomaly_kind_name(static_cast<AnomalyKind>(k)), fired[k]);
    total += fired[k];
  }
  w.end_object();
  w.member("fired_total", total);
  w.member("findings_retained", findings);
  w.member("findings_dropped", findings_dropped);
  w.member("max_inversion_wait_ns", static_cast<std::int64_t>(worst_wait));
  w.member("worst_inversion_flow",
           worst_bank != nullptr
               ? worst_bank->worst_inversion_flow().to_string()
               : std::string("none"));
  w.end_object();
}

void write_lanes_json(JsonWriter& w, const sim::LaneProfiler* profiler) {
  w.begin_object();
  w.member("attached", profiler != nullptr);
  if (profiler != nullptr && profiler->num_lanes() > 0) {
    w.member("busy_imbalance", profiler->busy_imbalance());
    w.member("event_imbalance", profiler->event_imbalance());
  }
  w.key("lanes").begin_array();
  for (int i = 0; profiler != nullptr && i < profiler->num_lanes(); ++i) {
    const auto& l = profiler->lane(i);
    w.begin_object();
    w.member("lane", static_cast<std::int64_t>(i));
    w.member("events", l.events);
    w.member("sim_ns", static_cast<std::int64_t>(l.sim_ns));
    w.member("busy_ns", l.busy_ns);
    w.end_object();
  }
  w.end_array();
  w.key("workers").begin_array();
  for (int i = 0; profiler != nullptr && i < profiler->num_workers(); ++i) {
    const auto& t = profiler->worker(i);
    w.begin_object();
    w.member("worker", static_cast<std::int64_t>(i));
    w.member("wall_ns", t.wall_ns);
    w.member("busy_ns", t.busy_ns);
    w.member("barrier_wait_ns", t.barrier_wait_ns);
    w.member("idle_ns", t.idle_ns());
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string lanes_json(const sim::LaneProfiler* profiler) {
  JsonWriter w;
  write_lanes_json(w, profiler);
  return w.take();
}

void export_lane_trace(const sim::LaneProfiler& profiler,
                       SpanTracer& tracer) {
  const auto busy_id = tracer.intern("busy", "events", "busy_ns");
  for (int i = 0; i < profiler.num_lanes(); ++i) {
    const auto& l = profiler.lane(i);
    tracer.set_track_label(i, "lane" + std::to_string(i) + ".busy");
    tracer.span(i, busy_id, l.sim_begin, l.sim_ns, l.events, l.busy_ns);
  }
}

}  // namespace prism::telemetry
