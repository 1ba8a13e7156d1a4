// /proc-style snapshot renderers over the telemetry registry.
//
// Renders the simulated stack's counters in the formats an operator would
// read on a real host — /proc/net/softnet_stat (one hex row per CPU) and a
// /proc/net/dev-like device table — plus a machine-readable JSON block for
// bench result files. Hosts assemble the rows from their registry; the
// renderers are pure formatting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace prism::telemetry {

class JsonWriter;
class SpanTracer;
struct Telemetry;

/// One CPU row of the softnet_stat table, mirroring the kernel's fields:
/// packets processed by net_rx_action, input-queue drops, budget/time
/// squeezes, RPS-steered packets, current backlog depth.
struct SoftnetRow {
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t time_squeeze = 0;
  std::uint64_t received_rps = 0;
  std::uint64_t backlog_len = 0;
  std::uint32_t cpu = 0;
  /// Packets shed by the per-CPU flow limiter (kernel flow_limit_count).
  /// Declared after `cpu` so existing positional initializers keep their
  /// meaning.
  std::uint64_t flow_limit = 0;
};

/// Renders rows in /proc/net/softnet_stat's hex-column format (13 columns:
/// processed dropped time_squeeze 5x0 cpu_collision received_rps
/// flow_limit backlog_len index).
std::string render_softnet_stat(const std::vector<SoftnetRow>& rows);

/// One device row of the net/dev-like table.
struct NetDevRow {
  std::string name;
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_dropped = 0;
  std::uint64_t tx_packets = 0;
};

/// Renders a /proc/net/dev-like table (receive/transmit packet and drop
/// columns; the simulator does not track per-device byte counts).
std::string render_net_dev(const std::vector<NetDevRow>& rows);

/// Emits `{"counters": {name: value, ...}, "gauges": {name: {"value": v,
/// "max": m}, ...}}` as the current JSON value of `w`.
void write_registry_json(JsonWriter& w, const Registry& registry);

/// write_registry_json as a standalone document.
std::string registry_json(const Registry& registry);

/// Retention stats of one bounded ring beyond the span tracer (a poll
/// trace attached to the host), reported under "rings" so truncation is
/// never silent.
struct RingStat {
  std::string name;
  std::uint64_t retained = 0;
  std::uint64_t dropped = 0;
};

/// Full bundle dump: the registry (as write_registry_json) plus a
/// "rings" section reporting the attached span tracer's recorded/
/// retained/dropped (zeros when `spans` is nullptr) and any
/// `extra_rings`, so ring truncation is visible in every export, a
/// "latency" section (write_latency_json), and a "flows" section
/// (write_flow_table_json).
void write_telemetry_json(JsonWriter& w, const Telemetry& telemetry,
                          const SpanTracer* spans,
                          const std::vector<RingStat>& extra_rings = {});

/// write_telemetry_json as a standalone document (the "prism/telemetry"
/// proc file).
std::string telemetry_json(const Telemetry& telemetry,
                           const SpanTracer* spans,
                           const std::vector<RingStat>& extra_rings = {});

}  // namespace prism::telemetry
