// Engine-observability exports: the "prism/lanes" profiler document,
// per-lane Chrome-trace tracks, and the cross-host merge helpers behind
// the "prism/cluster" fleet roll-up.
//
// The per-host telemetry layer (metrics.h, latency.h, snapshot.h) renders
// one host at a time; the Cluster harness needs the fleet view: every
// pair's counters summed by name, latency histograms merged per
// (stage, class) so fleet percentiles come from the merged distribution
// rather than averaged per-host percentiles, and the lane engine's
// profiler (sim/lane_profiler.h) rendered as JSON and as trace tracks.
// All renderers here are pure formatting/merging over snapshots the
// caller already holds — they never touch hot paths.
#pragma once

#include <string>
#include <vector>

#include "telemetry/anomaly.h"
#include "telemetry/latency.h"
#include "telemetry/metrics.h"

namespace prism::sim {
class LaneProfiler;
}

namespace prism::telemetry {

class JsonWriter;
class SpanTracer;

/// Sums counters by name across registries, in first-seen registration
/// order. Counters missing from some registries contribute zero.
std::vector<CounterSample> merge_counters(
    const std::vector<const Registry*>& registries);

/// Merges gauges by name: `value` sums (fleet-wide current level),
/// `max_value` sums the per-host high-water marks (each host's mark is
/// reached at its own instant, so the sum is an upper bound on the
/// fleet-wide peak — the conservative capacity-planning number).
std::vector<GaugeSample> merge_gauges(
    const std::vector<const Registry*>& registries);

/// {"counters": {...}, "gauges": {...}} over the merged samples — the
/// same shape as write_registry_json, so tooling reads both.
void write_merged_registry_json(
    JsonWriter& w, const std::vector<const Registry*>& registries);

/// Merges the per-(stage, class) aggregate histograms of every ledger
/// and emits the same "stages" rows as write_latency_json (count, min,
/// mean, p50/p90/p99, max, exact sum), plus summed unattributed /
/// dropped_in_flight totals. Windows are per-host state and are not
/// merged here.
void write_merged_latency_json(
    JsonWriter& w, const std::vector<const LatencyLedger*>& ledgers);

/// Sums the anomaly-detector firings of every bank (per kind and total),
/// plus retained/overflowed finding counts and the fleet-wide worst
/// inversion (the max across hosts, with the flow that suffered it).
/// Findings themselves stay per-host — read each host's
/// "prism/anomalies" for the frozen evidence; this is the fleet screen
/// that tells the operator which host to open.
void write_merged_anomalies_json(JsonWriter& w,
                                 const std::vector<const AnomalyBank*>& banks);

/// Writes the lane profiler document (the "prism/lanes" proc file):
/// per-lane {events, sim_ns, busy_ns}, per-worker {wall_ns, busy_ns,
/// barrier_wait_ns, idle_ns}, and the busy and event imbalance ratios
/// once a profiled run has happened. A null profiler (never enabled)
/// renders {"attached":false,"lanes":[],"workers":[]}.
void write_lanes_json(JsonWriter& w, const sim::LaneProfiler* profiler);
std::string lanes_json(const sim::LaneProfiler* profiler);

/// Writes the profiler's per-lane totals into `tracer`: on track i, one
/// "busy" span labelled "lane<i>.busy" over the simulated time the
/// lane was profiled for, args = events / busy wall-ns (each saturating
/// at 2^32 - 1, the tracer's argument width).
void export_lane_trace(const sim::LaneProfiler& profiler, SpanTracer& tracer);

}  // namespace prism::telemetry
