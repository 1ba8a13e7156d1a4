#include "apps/sockperf.h"

#include <cassert>
#include <stdexcept>

namespace prism::apps {

// ------------------------------------------------------- SockperfServer

SockperfServer::SockperfServer(sim::Simulator& sim, Config config)
    : sim_(sim), cfg_(config) {
  assert(cfg_.host && cfg_.ns && cfg_.cpu && "SockperfServer: bad config");
  sock_ = &cfg_.host->udp_bind(*cfg_.ns, cfg_.port);
  sock_->set_on_readable([this] {
    if (!busy_) {
      busy_ = true;
      begin_drain(/*wakeup=*/true);
    }
  });
}

void SockperfServer::begin_drain(bool wakeup) {
  const auto& cost = cfg_.host->cost();
  // recvfrom: (wakeup when blocked) + syscall + app work. The payload
  // copy is charged after the dequeue, when its size is known.
  sim::Duration c = cost.syscall_cost + cfg_.service_time;
  if (wakeup) c += cost.wakeup_cost;
  cfg_.cpu->run_task(c, [this] { finish_one(); });
}

void SockperfServer::finish_one() {
  auto d = sock_->try_recv();
  if (!d) {
    busy_ = false;
    return;
  }
  ++received_;
  // Copy cost for the actual payload, charged as part of this request's
  // handling (the recv syscall's copy_to_user).
  const auto& cost = cfg_.host->cost();
  const sim::Duration copy = cost.copy_cost(d->payload().size());

  const auto probe = decode_probe(d->payload());
  const bool reply = probe.has_value() && probe->reply;
  if (reply) {
    ++echoed_;
    // sendto with the same payload (sockperf echoes verbatim).
    cfg_.host->udp_send(*cfg_.ns, *cfg_.cpu, cfg_.port, d->src_ip,
                        d->src_port, d->payload());
  }
  // Account the copy, then continue draining or go back to blocking.
  cfg_.cpu->run_task(copy, [this] {
    if (sock_->has_data()) {
      begin_drain(/*wakeup=*/false);
    } else {
      busy_ = false;
    }
  });
}

// ------------------------------------------------------- SockperfClient

SockperfClient::SockperfClient(sim::Simulator& sim, Config config)
    : sim_(sim), cfg_(std::move(config)), rng_(config.seed) {
  assert(cfg_.host && cfg_.ns && !cfg_.cpus.empty() &&
         "SockperfClient: bad config");
  if (cfg_.rate_pps <= 0) {
    throw std::invalid_argument("SockperfClient: rate must be positive");
  }
  if (cfg_.payload_size < kProbeSize) {
    throw std::invalid_argument("SockperfClient: payload too small");
  }
  if (cfg_.burst < 1) {
    throw std::invalid_argument("SockperfClient: burst must be >= 1");
  }
  probe_payload_.resize(cfg_.payload_size);
  const double per_thread =
      cfg_.rate_pps / static_cast<double>(cfg_.cpus.size());
  interval_ =
      static_cast<sim::Duration>(1e9 * cfg_.burst / per_thread);
  for (std::size_t i = 0; i < cfg_.cpus.size(); ++i) {
    Thread t;
    t.cpu = cfg_.cpus[i];
    t.src_port =
        static_cast<std::uint16_t>(cfg_.base_src_port + i);
    if (cfg_.reply_every > 0) {
      t.sock = &cfg_.host->udp_bind(*cfg_.ns, t.src_port);
    }
    threads_.push_back(t);
  }
  // RX notification wiring (needs stable Thread storage — done above).
  for (auto& t : threads_) {
    if (t.sock != nullptr) {
      Thread* tp = &t;
      t.sock->set_on_readable([this, tp] {
        if (!tp->rx_busy) {
          tp->rx_busy = true;
          begin_rx(*tp, /*wakeup=*/true);
        }
      });
    }
  }
}

void SockperfClient::start() {
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    // Stagger threads so aggregate sends are evenly spaced.
    const sim::Time offset =
        static_cast<sim::Time>(i) * interval_ /
        static_cast<sim::Time>(threads_.size());
    sim_.schedule_at(cfg_.start_at + offset, [this, i] { tick(i, 0); });
  }
}

void SockperfClient::tick(std::size_t thread_index, std::uint64_t n) {
  Thread& t = threads_[thread_index];
  if (sim_.now() >= cfg_.stop_at) return;
  sim::Duration gap = interval_;
  if (cfg_.jitter > 0) {
    gap = static_cast<sim::Duration>(
        static_cast<double>(interval_) *
        rng_.uniform(1.0 - cfg_.jitter, 1.0 + cfg_.jitter));
    if (gap < 1) gap = 1;
  }
  sim_.schedule(gap, [this, thread_index, n] {
    tick(thread_index, n + 1);
  });
  if (t.outstanding >= cfg_.max_outstanding) {
    skipped_ += static_cast<std::uint64_t>(cfg_.burst);
    return;
  }
  for (int b = 0; b < cfg_.burst; ++b) {
    const std::uint64_t seq = t.next_seq++;
    const bool reply =
        cfg_.reply_every > 0 &&
        (seq % static_cast<std::uint64_t>(cfg_.reply_every)) == 0;
    ++sent_;
    send_probe(t, seq, reply);
    if (reply && cfg_.reply_timeout > 0) {
      t.pending.emplace(seq, PendingProbe{});
      arm_retry(thread_index, seq, /*attempt=*/0, cfg_.reply_timeout);
    }
  }
}

void SockperfClient::send_probe(Thread& t, std::uint64_t seq, bool reply) {
  Probe probe;
  probe.seq = seq;
  probe.sent_at = sim_.now();
  probe.reply = reply;
  ++t.outstanding;
  // udp_send copies the payload into the frame before returning, so the
  // payload is rewritable immediately.
  encode_probe_into(probe, probe_payload_);
  cfg_.host->udp_send(*cfg_.ns, *t.cpu, t.src_port, cfg_.dst_ip,
                      cfg_.dst_port, probe_payload_,
                      [&t] { --t.outstanding; });
}

void SockperfClient::arm_retry(std::size_t thread_index, std::uint64_t seq,
                               int attempt, sim::Duration wait) {
  sim_.schedule(wait, [this, thread_index, seq, attempt] {
    on_reply_timeout(thread_index, seq, attempt);
  });
}

void SockperfClient::on_reply_timeout(std::size_t thread_index,
                                      std::uint64_t seq, int attempt) {
  Thread& t = threads_[thread_index];
  const auto it = t.pending.find(seq);
  if (it == t.pending.end()) return;           // echo arrived in time
  if (it->second.attempts != attempt) return;  // stale timer
  if (it->second.attempts >= cfg_.max_retries) {
    t.pending.erase(it);
    ++probe_timeouts_;
    return;
  }
  ++it->second.attempts;
  ++retransmits_;
  send_probe(t, seq, /*reply=*/true);
  // Exponential backoff: the wait doubles per attempt, capped.
  sim::Duration wait = cfg_.reply_timeout << it->second.attempts;
  if (wait > cfg_.max_backoff) wait = cfg_.max_backoff;
  if (wait < cfg_.reply_timeout) wait = cfg_.reply_timeout;  // overflow cap
  arm_retry(thread_index, seq, it->second.attempts, wait);
}

void SockperfClient::begin_rx(Thread& t, bool wakeup) {
  const auto& cost = cfg_.host->cost();
  sim::Duration c = cost.syscall_cost + cost.copy_cost(cfg_.payload_size);
  if (wakeup) c += cost.wakeup_cost;
  t.cpu->run_task(c, [this, &t] { finish_rx(t); });
}

void SockperfClient::finish_rx(Thread& t) {
  auto d = t.sock->try_recv();
  if (!d) {
    t.rx_busy = false;
    return;
  }
  if (const auto probe = decode_probe(d->payload())) {
    if (cfg_.reply_timeout > 0) {
      // With retransmission a seq can be echoed more than once; only the
      // first echo closes the probe and counts toward the measurement.
      const auto it = t.pending.find(probe->seq);
      if (it == t.pending.end()) {
        ++late_replies_;
      } else {
        t.pending.erase(it);
        ++replies_;
        latency_.record((sim_.now() - probe->sent_at) / 2);
      }
    } else {
      ++replies_;
      // sockperf reports one-way latency as RTT/2.
      latency_.record((sim_.now() - probe->sent_at) / 2);
    }
  }
  if (t.sock->has_data()) {
    begin_rx(t, /*wakeup=*/false);
  } else {
    t.rx_busy = false;
  }
}

// ---------------------------------------------------- SockperfTcpSender

SockperfTcpSender::SockperfTcpSender(sim::Simulator& sim, Config config)
    : sim_(sim),
      cfg_(config),
      payload_(config.message_size, 0xa5),
      rng_(config.seed) {
  assert(cfg_.endpoint && cfg_.cpu && "SockperfTcpSender: bad config");
  if (cfg_.rate_mps <= 0) {
    throw std::invalid_argument("SockperfTcpSender: rate must be positive");
  }
  interval_ = static_cast<sim::Duration>(1e9 / cfg_.rate_mps);
}

void SockperfTcpSender::start() {
  sim_.schedule_at(cfg_.start_at, [this] { tick(0); });
}

void SockperfTcpSender::tick(std::uint64_t n) {
  if (sim_.now() >= cfg_.stop_at) return;
  sim::Duration gap = interval_;
  if (cfg_.jitter > 0) {
    gap = static_cast<sim::Duration>(
        static_cast<double>(interval_) *
        rng_.uniform(1.0 - cfg_.jitter, 1.0 + cfg_.jitter));
    if (gap < 1) gap = 1;
  }
  sim_.schedule(gap, [this, n] { tick(n + 1); });
  if (cfg_.endpoint->unacked_bytes() > cfg_.max_unacked) {
    ++skipped_;
    return;
  }
  ++sent_;
  cfg_.endpoint->send(payload_, *cfg_.cpu);
}

// -------------------------------------------------------- TcpSinkServer

TcpSinkServer::TcpSinkServer(Config config) : cfg_(config) {
  assert(cfg_.endpoint && cfg_.cpu && cfg_.cost &&
         "TcpSinkServer: bad config");
  cfg_.endpoint->on_data = [this](std::span<const std::uint8_t> data,
                                  sim::Time) {
    bytes_ += data.size();
    // One read() per delivered chunk: syscall + copy.
    cfg_.cpu->run_task(
        cfg_.cost->syscall_cost + cfg_.cost->copy_cost(data.size()),
        [] {});
  };
}

}  // namespace prism::apps
