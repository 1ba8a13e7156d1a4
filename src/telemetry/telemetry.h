// Per-host telemetry bundle: metrics registry, latency attribution
// ledger, per-flow accounting table, flight recorder and anomaly bank.
#pragma once

#include "telemetry/anomaly.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/flow_table.h"
#include "telemetry/latency.h"
#include "telemetry/metrics.h"

namespace prism::telemetry {

/// Everything one Host's instrumentation binds to. The registry names the
/// components' own counters and gauges, which always count. The
/// recorders (latency ledger, flow table, flight recorder, anomaly bank)
/// record unless switched off at run time (set_enabled / set_armed).
/// Span tracers are not part of the bundle: one
/// is attached from outside (Host::set_span_tracer), often shared by
/// several hosts.
struct Telemetry {
  Registry registry;
  LatencyLedger latency;
  FlowTable flows;
  FlightRecorder recorder;
  AnomalyBank anomalies;
};

}  // namespace prism::telemetry
