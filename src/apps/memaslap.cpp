#include "apps/memaslap.h"

#include <cassert>

namespace prism::apps {

MemaslapClient::MemaslapClient(sim::Simulator& sim, Config config)
    : sim_(sim), cfg_(config), rng_(config.seed) {
  assert(cfg_.host && cfg_.ns && cfg_.cpu && "MemaslapClient: bad config");
  slots_.resize(static_cast<std::size_t>(cfg_.concurrency));
  sock_ = &cfg_.host->udp_bind(*cfg_.ns, cfg_.src_port);
  sock_->set_on_readable([this] {
    if (!rx_busy_) {
      rx_busy_ = true;
      begin_rx(/*wakeup=*/true);
    }
  });
}

void MemaslapClient::start() {
  sim_.schedule_at(cfg_.start_at, [this] {
    for (int slot = 0; slot < cfg_.concurrency; ++slot) issue(slot);
  });
}

void MemaslapClient::issue(int slot) {
  if (sim_.now() >= cfg_.stop_at) return;

  KvRequest req;
  req.probe.seq = next_seq_++;
  req.probe.sent_at = sim_.now();
  const int key_index =
      static_cast<int>(rng_.uniform_int(0, cfg_.key_count - 1));
  req.key = MemcachedServer::key_name(key_index);
  if (rng_.chance(cfg_.get_ratio)) {
    req.op = KvOp::kGet;
    ++gets_;
  } else {
    req.op = KvOp::kSet;
    req.value = std::vector<std::uint8_t>(cfg_.value_size, 0x42);
    ++sets_;
  }
  auto& s = slots_.at(static_cast<std::size_t>(slot));
  s.req = std::move(req);
  s.attempts = 0;
  send_current(slot);
}

void MemaslapClient::send_current(int slot) {
  const auto& s = slots_.at(static_cast<std::size_t>(slot));
  const std::uint64_t seq = s.req.probe.seq;
  in_flight_[seq] = slot;
  encode_kv_request(s.req, tx_);
  cfg_.host->udp_send(*cfg_.ns, *cfg_.cpu, cfg_.src_port, cfg_.server_ip,
                      cfg_.server_port, tx_);
  sim_.schedule(cfg_.request_timeout,
                [this, slot, seq] { on_timeout(slot, seq); });
}

void MemaslapClient::on_timeout(int slot, std::uint64_t seq) {
  const auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) return;  // already answered
  in_flight_.erase(it);
  auto& s = slots_.at(static_cast<std::size_t>(slot));
  if (s.attempts < cfg_.max_retries && sim_.now() < cfg_.stop_at) {
    // Same request, same seq: a late response to any attempt completes
    // the slot. Backoff doubles per attempt, capped.
    ++s.attempts;
    ++retries_;
    sim::Duration wait = cfg_.retry_backoff << (s.attempts - 1);
    if (wait > cfg_.max_backoff) wait = cfg_.max_backoff;
    if (wait < 1) wait = 1;
    sim_.schedule(wait, [this, slot] { send_current(slot); });
    return;
  }
  ++timeouts_;
  issue(slot);  // keep the slot busy with a fresh request
}

void MemaslapClient::begin_rx(bool wakeup) {
  const auto& cost = cfg_.host->cost();
  // Response copy dominated by the value size on get hits.
  sim::Duration c =
      cost.syscall_cost + cost.copy_cost(cfg_.value_size + 32);
  if (wakeup) c += cost.wakeup_cost;
  cfg_.cpu->run_task(c, [this] { finish_rx(); });
}

void MemaslapClient::finish_rx() {
  auto d = sock_->try_recv();
  if (!d) {
    rx_busy_ = false;
    return;
  }
  if (const auto resp = decode_kv_response(d->payload())) {
    const auto it = in_flight_.find(resp->probe.seq);
    if (it != in_flight_.end()) {
      const int slot = it->second;
      in_flight_.erase(it);
      ++completed_;
      latency_.record(sim_.now() - resp->probe.sent_at);
      issue(slot);
    }
    // else: response to a timed-out request — already rescheduled.
  }
  if (sock_->has_data()) {
    begin_rx(/*wakeup=*/false);
  } else {
    rx_busy_ = false;
  }
}

double MemaslapClient::ops_per_second() const noexcept {
  const double span = sim::to_s(cfg_.stop_at - cfg_.start_at);
  return span <= 0 ? 0.0 : static_cast<double>(completed_) / span;
}

}  // namespace prism::apps
