#include "telemetry/snapshot.h"

#include <cstdio>

#include "telemetry/json_writer.h"
#include "telemetry/span_tracer.h"
#include "telemetry/telemetry.h"

namespace prism::telemetry {

std::string render_softnet_stat(const std::vector<SoftnetRow>& rows) {
  std::string out;
  char buf[192];
  for (const auto& r : rows) {
    std::snprintf(
        buf, sizeof(buf),
        "%08llx %08llx %08llx 00000000 00000000 00000000 00000000 "
        "00000000 00000000 %08llx %08llx %08llx %08x\n",
        static_cast<unsigned long long>(r.processed),
        static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.time_squeeze),
        static_cast<unsigned long long>(r.received_rps),
        static_cast<unsigned long long>(r.flow_limit),
        static_cast<unsigned long long>(r.backlog_len), r.cpu);
    out += buf;
  }
  return out;
}

std::string render_net_dev(const std::vector<NetDevRow>& rows) {
  std::string out =
      "Inter-|   Receive                |  Transmit\n"
      " face |  packets    drop         |  packets\n";
  char buf[128];
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof(buf), "%6s: %10llu %7llu %18llu\n",
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.rx_packets),
                  static_cast<unsigned long long>(r.rx_dropped),
                  static_cast<unsigned long long>(r.tx_packets));
    out += buf;
  }
  return out;
}

void write_registry_json(JsonWriter& w, const Registry& registry) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& c : registry.counters()) w.member(c.name, c.value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : registry.gauges()) {
    w.key(g.name)
        .begin_object()
        .member("value", g.value)
        .member("max", g.max_value)
        .end_object();
  }
  w.end_object();
  w.end_object();
}

std::string registry_json(const Registry& registry) {
  JsonWriter w;
  write_registry_json(w, registry);
  return w.take();
}

void write_telemetry_json(JsonWriter& w, const Telemetry& telemetry,
                          const SpanTracer* spans,
                          const std::vector<RingStat>& extra_rings) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& c : telemetry.registry.counters()) {
    w.member(c.name, c.value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : telemetry.registry.gauges()) {
    w.key(g.name)
        .begin_object()
        .member("value", g.value)
        .member("max", g.max_value)
        .end_object();
  }
  w.end_object();
  w.key("rings")
      .begin_object()
      .key("spans")
      .begin_object()
      .member("recorded", spans != nullptr ? spans->recorded() : 0)
      .member("retained", spans != nullptr
                              ? static_cast<std::uint64_t>(spans->size())
                              : 0)
      .member("dropped", spans != nullptr ? spans->dropped() : 0)
      .end_object();
  for (const auto& ring : extra_rings) {
    w.key(ring.name)
        .begin_object()
        .member("retained", ring.retained)
        .member("dropped", ring.dropped)
        .end_object();
  }
  w.end_object();
  w.key("latency");
  write_latency_json(w, telemetry.latency);
  w.key("flows");
  write_flow_table_json(w, telemetry.flows);
  w.end_object();
}

std::string telemetry_json(const Telemetry& telemetry,
                           const SpanTracer* spans,
                           const std::vector<RingStat>& extra_rings) {
  JsonWriter w;
  write_telemetry_json(w, telemetry, spans, extra_rings);
  return w.take();
}

}  // namespace prism::telemetry
