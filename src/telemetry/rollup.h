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
/// per-lane events/sim-time/inbox totals and sampled busy time,
/// per-worker wall/barrier/busy/idle accounting, imbalance ratios, and
/// record-ring retention. `attached == false` renders the stub
/// {"attached": false, ...} (profiler never enabled).
void write_lanes_json(JsonWriter& w, const sim::LaneProfiler* profiler);
std::string lanes_json(const sim::LaneProfiler* profiler);

/// Replays the profiler's retained windows into `tracer`: lane i's
/// sampled windows on track `track_base + i` ("lane<i>.window" spans
/// over [window_start, window_end), args = events / busy wall-ns).
void export_lane_trace(const sim::LaneProfiler& profiler, SpanTracer& tracer,
                       int track_base = 0);

}  // namespace prism::telemetry
