#include "telemetry/anomaly.h"

#include <algorithm>

#include "fault/fault.h"
#include "telemetry/json_writer.h"
#include "telemetry/span_tracer.h"

namespace prism::telemetry {

namespace {

const char* drop_code_name(int code) {
  if (code < 0 || code >= static_cast<int>(fault::DropReason::kCount)) {
    return "none";
  }
  return fault::drop_reason_name(static_cast<fault::DropReason>(code));
}

}  // namespace

const char* anomaly_kind_name(AnomalyKind kind) noexcept {
  switch (kind) {
    case AnomalyKind::kQueueInversion:
      return "queue_inversion";
    case AnomalyKind::kRingInversion:
      return "ring_inversion";
    case AnomalyKind::kSloBreach:
      return "slo_breach";
    case AnomalyKind::kDropBurst:
      return "drop_burst";
    case AnomalyKind::kGovernorFlap:
      return "governor_flap";
    case AnomalyKind::kConvergenceTimeout:
      return "convergence_timeout";
    case AnomalyKind::kCount:
      break;
  }
  return "?";
}

void AnomalyBank::arm(const AnomalyConfig& config) {
  config_ = config;
  if (config_.slo_window_ns <= 0) config_.slo_window_ns = 1;
  if (config_.drop_burst_window_ns <= 0) config_.drop_burst_window_ns = 1;
  if (config_.flap_window_ns <= 0) config_.flap_window_ns = 1;
  armed_ = true;
}

std::uint64_t AnomalyBank::fired_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t f : fired_) total += f;
  return total;
}

void AnomalyBank::reset() {
  fired_.fill(0);
  findings_.clear();
  findings_dropped_ = 0;
  max_inversion_wait_ = 0;
  worst_inversion_flow_ = net::FiveTuple{};
  for (auto& w : slo_) {
    w.hist.reset();
    w.start = -1;
  }
  drops_ = BurstWindow{};
  flaps_ = BurstWindow{};
  convergence_.fill(ConvergenceWatch{});
  recoveries_.clear();
}

bool AnomalyBank::convergence_watch_armed(int level) const noexcept {
  if (level < 0 || level >= static_cast<int>(convergence_.size())) {
    return false;
  }
  return convergence_[static_cast<std::size_t>(level)].armed;
}

void AnomalyBank::note_disruption(int level, sim::Time at) {
  if (!armed_ || config_.convergence_deadline_ns <= 0 ||
      config_.slo_p99_ns <= 0) {
    return;
  }
  const int c = std::clamp(level, 0, static_cast<int>(slo_.size()) - 1);
  ConvergenceWatch& cw = convergence_[static_cast<std::size_t>(c)];
  cw.armed = true;
  cw.disrupted_at = at;
  // Restart the class's SLO window at the disruption instant: samples
  // taken before the disruption must not count toward (or against) the
  // post-disruption recovery judgement.
  SloWindow& w = slo_[static_cast<std::size_t>(c)];
  w.hist.reset();
  w.start = at;
}

void AnomalyBank::fire(AnomalyFinding finding) {
  ++fired_[static_cast<std::size_t>(finding.kind)];
  if (findings_.size() >= config_.max_findings) {
    ++findings_dropped_;
    return;
  }
  if (recorder_ != nullptr && config_.freeze_events > 0) {
    finding.frozen = recorder_->tail(config_.freeze_events);
  }
  findings_.push_back(std::move(finding));
}

void AnomalyBank::on_stage_wait(const net::FiveTuple& flow, int stage,
                                int level, sim::Duration wait_ns,
                                int head_level, sim::Time at) {
  if (!armed_ || !config_.detect_inversion) return;
  if (level < 1 || wait_ns < config_.inversion_wait_ns) return;
  AnomalyKind kind;
  if (stage == 1 && head_level < 0) {
    kind = AnomalyKind::kRingInversion;  // priority-blind FIFO residency
  } else if (head_level >= 0 && head_level < level) {
    kind = AnomalyKind::kQueueInversion;  // queued behind a lower class
  } else {
    return;
  }
  if (wait_ns > max_inversion_wait_) {
    max_inversion_wait_ = wait_ns;
    worst_inversion_flow_ = flow;
  }
  AnomalyFinding f;
  f.kind = kind;
  f.at = at;
  f.stage = stage;
  f.level = level;
  f.head_level = head_level;
  f.flow = flow;
  f.wait_ns = wait_ns;
  f.value = static_cast<double>(wait_ns);
  f.threshold = static_cast<double>(config_.inversion_wait_ns);
  fire(std::move(f));
}

void AnomalyBank::on_delivery(int level, sim::Duration e2e_ns, sim::Time at) {
  if (!armed_ || config_.slo_p99_ns <= 0 || e2e_ns < 0) return;
  const int c = std::clamp(level, 0, static_cast<int>(slo_.size()) - 1);
  SloWindow& w = slo_[static_cast<std::size_t>(c)];
  if (w.start < 0) w.start = at;
  ConvergenceWatch& cw = convergence_[static_cast<std::size_t>(c)];
  if (at >= w.start + config_.slo_window_ns) {
    // Finalize the window that just closed; empty skipped windows can
    // never breach, so jump straight to the window containing `at`.
    if (w.hist.count() > 0) {
      const auto p99 = static_cast<std::uint64_t>(w.hist.percentile(0.99));
      if (c >= 1 && p99 > static_cast<std::uint64_t>(config_.slo_p99_ns)) {
        AnomalyFinding f;
        f.kind = AnomalyKind::kSloBreach;
        f.at = w.start + config_.slo_window_ns;
        f.level = c;
        f.value = static_cast<double>(p99);
        f.threshold = static_cast<double>(config_.slo_p99_ns);
        fire(std::move(f));
      }
      // A fully post-disruption window back under the target closes the
      // class's convergence watch with a recovery record.
      if (cw.armed && w.start >= cw.disrupted_at &&
          p99 <= static_cast<std::uint64_t>(config_.slo_p99_ns)) {
        cw.armed = false;
        recoveries_.push_back(ConvergenceRecovery{
            c, cw.disrupted_at, w.start + config_.slo_window_ns});
      }
    }
    w.hist.reset();
    w.start += config_.slo_window_ns *
               ((at - w.start) / config_.slo_window_ns);
  }
  w.hist.record(e2e_ns);
  // Still watching past the deadline: the class never produced a
  // compliant window in time. Fires once, then the watch disarms.
  if (cw.armed && config_.convergence_deadline_ns > 0 &&
      at > cw.disrupted_at + config_.convergence_deadline_ns) {
    cw.armed = false;
    AnomalyFinding f;
    f.kind = AnomalyKind::kConvergenceTimeout;
    f.at = at;
    f.level = c;
    f.value = static_cast<double>(at - cw.disrupted_at);
    f.threshold = static_cast<double>(config_.convergence_deadline_ns);
    fire(std::move(f));
  }
}

void AnomalyBank::on_drop(int reason, int level, sim::Time at) {
  if (!armed_ || config_.drop_burst_threshold == 0) return;
  if (drops_.start < 0 || at >= drops_.start + config_.drop_burst_window_ns) {
    drops_.start = at;
    drops_.count = 0;
    drops_.fired_this_window = false;
  }
  ++drops_.count;
  if (!drops_.fired_this_window &&
      drops_.count >= config_.drop_burst_threshold) {
    drops_.fired_this_window = true;
    AnomalyFinding f;
    f.kind = AnomalyKind::kDropBurst;
    f.at = at;
    f.level = level;
    f.head_level = reason;  // reuse: the drop reason code that tipped it
    f.value = static_cast<double>(drops_.count);
    f.threshold = static_cast<double>(config_.drop_burst_threshold);
    fire(std::move(f));
  }
}

void AnomalyBank::on_governor_transition(sim::Time at, int from_state,
                                         int to_state, const char* cause) {
  (void)cause;
  if (!armed_ || config_.flap_threshold == 0) return;
  if (flaps_.start < 0 || at >= flaps_.start + config_.flap_window_ns) {
    flaps_.start = at;
    flaps_.count = 0;
    flaps_.fired_this_window = false;
  }
  ++flaps_.count;
  if (!flaps_.fired_this_window && flaps_.count >= config_.flap_threshold) {
    flaps_.fired_this_window = true;
    AnomalyFinding f;
    f.kind = AnomalyKind::kGovernorFlap;
    f.at = at;
    f.level = to_state;       // reuse: the state flapped into
    f.head_level = from_state;
    f.value = static_cast<double>(flaps_.count);
    f.threshold = static_cast<double>(config_.flap_threshold);
    fire(std::move(f));
  }
}

namespace {

void write_flight_event(JsonWriter& w, const FlightEvent& e) {
  w.begin_object();
  w.member("at_ns", static_cast<std::int64_t>(e.at));
  w.member("kind", flight_event_kind_name(e.kind));
  w.member("stage", static_cast<int>(e.stage));
  w.member("class", static_cast<int>(e.level));
  w.member("head_class", static_cast<int>(e.head_level));
  w.member("depth", static_cast<int>(e.depth));
  w.member("wait_ns", static_cast<std::int64_t>(e.wait_ns));
  if (e.drop_reason >= 0) {
    w.member("drop_reason", drop_code_name(e.drop_reason));
  }
  w.member("flow", e.flow.to_string());
  w.end_object();
}

}  // namespace

void anomalies_json(JsonWriter& w, const AnomalyBank& bank,
                    const FlightRecorder* recorder) {
  w.begin_object();
  w.member("armed", bank.armed());
  const AnomalyConfig& cfg = bank.config();
  w.key("config").begin_object();
  w.member("detect_inversion", cfg.detect_inversion);
  w.member("inversion_wait_ns", static_cast<std::int64_t>(cfg.inversion_wait_ns));
  w.member("slo_p99_ns", static_cast<std::int64_t>(cfg.slo_p99_ns));
  w.member("slo_window_ns", static_cast<std::int64_t>(cfg.slo_window_ns));
  w.member("drop_burst_threshold",
           static_cast<std::uint64_t>(cfg.drop_burst_threshold));
  w.member("drop_burst_window_ns",
           static_cast<std::int64_t>(cfg.drop_burst_window_ns));
  w.member("flap_threshold", static_cast<std::uint64_t>(cfg.flap_threshold));
  w.member("flap_window_ns", static_cast<std::int64_t>(cfg.flap_window_ns));
  w.member("convergence_deadline_ns",
           static_cast<std::int64_t>(cfg.convergence_deadline_ns));
  w.member("max_findings", static_cast<std::uint64_t>(cfg.max_findings));
  w.member("freeze_events", static_cast<std::uint64_t>(cfg.freeze_events));
  w.end_object();
  if (recorder != nullptr) {
    w.key("recorder").begin_object();
    w.member("armed", recorder->armed());
    w.member("sample_period",
             static_cast<std::uint64_t>(recorder->config().sample_period));
    w.member("pin_level", recorder->config().pin_level);
    w.member("ring_capacity",
             static_cast<std::uint64_t>(recorder->capacity()));
    w.member("events_retained", static_cast<std::uint64_t>(recorder->size()));
    w.member("events_recorded", recorder->recorded());
    w.member("events_overwritten", recorder->overwritten());
    w.end_object();
  }
  w.key("fired").begin_object();
  for (std::size_t k = 0; k < static_cast<std::size_t>(AnomalyKind::kCount);
       ++k) {
    w.member(anomaly_kind_name(static_cast<AnomalyKind>(k)),
             bank.fired(static_cast<AnomalyKind>(k)));
  }
  w.end_object();
  w.member("fired_total", bank.fired_total());
  w.member("findings_dropped", bank.findings_dropped());
  w.member("max_inversion_wait_ns",
           static_cast<std::int64_t>(bank.max_inversion_wait_ns()));
  w.member("worst_inversion_flow",
           bank.max_inversion_wait_ns() > 0
               ? bank.worst_inversion_flow().to_string()
               : std::string("none"));
  w.key("recoveries").begin_array();
  for (const AnomalyBank::ConvergenceRecovery& r : bank.recoveries()) {
    w.begin_object();
    w.member("class", r.level);
    w.member("disrupted_at_ns", static_cast<std::int64_t>(r.disrupted_at));
    w.member("recovered_at_ns", static_cast<std::int64_t>(r.recovered_at));
    w.member("recovery_ns",
             static_cast<std::int64_t>(r.recovered_at - r.disrupted_at));
    w.end_object();
  }
  w.end_array();
  w.key("findings").begin_array();
  for (const AnomalyFinding& f : bank.findings()) {
    w.begin_object();
    w.member("kind", anomaly_kind_name(f.kind));
    w.member("at_ns", static_cast<std::int64_t>(f.at));
    w.member("stage", f.stage);
    w.member("class", f.level);
    w.member("head_class", f.head_level);
    w.member("flow", f.kind == AnomalyKind::kQueueInversion ||
                             f.kind == AnomalyKind::kRingInversion
                         ? f.flow.to_string()
                         : std::string("n/a"));
    w.member("wait_ns", static_cast<std::int64_t>(f.wait_ns));
    w.member("value", f.value);
    w.member("threshold", f.threshold);
    w.key("frozen").begin_array();
    for (const FlightEvent& e : f.frozen) write_flight_event(w, e);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string anomalies_json(const AnomalyBank& bank,
                           const FlightRecorder* recorder) {
  JsonWriter w;
  anomalies_json(w, bank, recorder);
  return w.take();
}

bool export_anomaly_trace_file(const AnomalyBank& bank,
                               const std::string& path) {
  SpanTracer tracer;
  tracer.set_track_label(0, "findings");
  tracer.set_track_label(1, "stage1.ring+poll");
  tracer.set_track_label(2, "stage2.grocell");
  tracer.set_track_label(3, "stage3.backlog");
  tracer.set_track_label(4, "socket");
  std::array<SpanTracer::NameId, static_cast<std::size_t>(AnomalyKind::kCount)>
      kind_ids{};
  for (std::size_t k = 0; k < kind_ids.size(); ++k) {
    kind_ids[k] = tracer.intern(anomaly_kind_name(static_cast<AnomalyKind>(k)));
  }
  std::array<SpanTracer::NameId, 6> event_ids{};
  for (std::uint8_t k = 0; k < event_ids.size(); ++k) {
    event_ids[k] = tracer.intern(
        flight_event_kind_name(static_cast<FlightEventKind>(k)), "level",
        "head_level");
  }
  for (const AnomalyFinding& f : bank.findings()) {
    tracer.instant(0, kind_ids[static_cast<std::size_t>(f.kind)], f.at);
    for (const FlightEvent& e : f.frozen) {
      const int track = e.stage >= 1 && e.stage <= 4 ? e.stage : 0;
      const auto name = event_ids[static_cast<std::size_t>(e.kind)];
      if ((e.kind == FlightEventKind::kDequeue ||
           e.kind == FlightEventKind::kDeliver ||
           e.kind == FlightEventKind::kRingArrival) &&
          e.wait_ns > 0) {
        tracer.span(track, name, e.at - e.wait_ns, e.wait_ns, e.level,
                    e.head_level);
      } else {
        tracer.instant(track, name, e.at);
      }
    }
  }
  return tracer.export_chrome_trace_file(path, "prism-anomalies");
}

}  // namespace prism::telemetry
