#include "apps/http_server.h"

#include <cassert>
#include <stdexcept>

namespace prism::apps {

namespace {

/// A framed message whose `body_size`-byte body is zeros.
std::vector<std::uint8_t> zero_message(std::size_t body_size) {
  return MessageFramer::frame(std::vector<std::uint8_t>(body_size));
}

/// Rewrites the probe at the front of framed `message`'s body.
void set_probe(std::vector<std::uint8_t>& message, const Probe& probe) {
  encode_probe_into(probe, std::span<std::uint8_t>(message).subspan(
                               MessageFramer::kPrefixSize));
}

}  // namespace

HttpServer::HttpServer(Config config) : cfg_(config) {
  assert(cfg_.host && cfg_.ns && cfg_.cpu && cfg_.connection &&
         "HttpServer: bad config");
  if (cfg_.response_size < kProbeSize) {
    throw std::invalid_argument("HttpServer: response smaller than probe");
  }
  response_ = zero_message(cfg_.response_size);
  cfg_.connection->on_data = [this](std::span<const std::uint8_t> data,
                                    sim::Time) { on_stream_data(data); };
}

void HttpServer::on_stream_data(std::span<const std::uint8_t> data) {
  framer_.push(data);
  while (const auto msg = framer_.next()) {
    pending_.push_back(Request{decode_probe(*msg), msg->size()});
  }
  if (!busy_ && !pending_.empty()) {
    busy_ = true;
    // Wakeup from epoll_wait, then handle the request.
    const auto& cost = cfg_.host->cost();
    cfg_.cpu->run_task(cost.wakeup_cost, [this] { process_next(); });
  }
}

void HttpServer::process_next() {
  if (pending_.empty()) {
    busy_ = false;
    return;
  }
  const Request request = pending_.front();
  pending_.pop_front();
  const auto& cost = cfg_.host->cost();
  const sim::Duration work = cost.syscall_cost +
                             cost.copy_cost(request.size) +
                             cfg_.service_time;
  cfg_.cpu->run_task(work, [this, probe = request.probe] {
    ++served_;
    // The response echoes the request probe, padded to the file size.
    set_probe(response_, probe.value_or(Probe{}));
    cfg_.connection->send(response_, *cfg_.cpu);
    process_next();
  });
}

Wrk2Client::Wrk2Client(sim::Simulator& sim, Config config)
    : sim_(sim), cfg_(config), rng_(config.seed) {
  assert(cfg_.host && cfg_.ns && cfg_.cpu && cfg_.connection &&
         "Wrk2Client: bad config");
  if (cfg_.rate_rps <= 0) {
    throw std::invalid_argument("Wrk2Client: rate must be positive");
  }
  if (cfg_.request_size < kProbeSize) {
    throw std::invalid_argument("Wrk2Client: request smaller than probe");
  }
  interval_ = static_cast<sim::Duration>(1e9 / cfg_.rate_rps);
  request_ = zero_message(cfg_.request_size);
  cfg_.connection->on_data = [this](std::span<const std::uint8_t> data,
                                    sim::Time) { on_stream_data(data); };
}

void Wrk2Client::start() {
  sim_.schedule_at(cfg_.start_at, [this] { tick(); });
}

void Wrk2Client::tick() {
  if (sim_.now() >= cfg_.stop_at) return;
  sim::Duration gap = interval_;
  if (cfg_.jitter > 0) {
    gap = static_cast<sim::Duration>(
        static_cast<double>(interval_) *
        rng_.uniform(1.0 - cfg_.jitter, 1.0 + cfg_.jitter));
    if (gap < 1) gap = 1;
  }
  sim_.schedule(gap, [this] { tick(); });
  Probe probe;
  probe.seq = next_seq_++;
  // wrk2: latency is measured from the request's *scheduled* time, so a
  // backed-up connection cannot hide queueing delay (no coordinated
  // omission).
  probe.sent_at = sim_.now();
  ++sent_;
  set_probe(request_, probe);
  cfg_.connection->send(request_, *cfg_.cpu);
}

void Wrk2Client::on_stream_data(std::span<const std::uint8_t> data) {
  framer_.push(data);
  while (auto msg = framer_.next()) {
    if (const auto probe = decode_probe(*msg)) {
      ++completed_;
      latency_.record(sim_.now() - probe->sent_at);
    }
  }
}

double Wrk2Client::requests_per_second() const noexcept {
  const double span = sim::to_s(cfg_.stop_at - cfg_.start_at);
  return span <= 0 ? 0.0 : static_cast<double>(completed_) / span;
}

}  // namespace prism::apps
