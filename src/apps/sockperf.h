// sockperf-style UDP workload generators (paper §V-A).
//
// The paper drives every microbenchmark with sockperf: a containerized
// echo server, constant-rate clients for background load (UDP throughput
// mode), and latency probes measured as RTT/2 at the client (ping-pong /
// under-load mode with sampled replies). These classes model those tools,
// charging realistic wakeup/syscall/copy costs on their CPUs so the
// application side of the latency path is part of the measurement.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "apps/payload.h"
#include "kernel/host.h"
#include "sim/rng.h"
#include "stats/histogram.h"

namespace prism::apps {

/// Echo/count server. Echoes payloads whose probe requests a reply
/// (sockperf --reply-every semantics), counts everything.
class SockperfServer {
 public:
  struct Config {
    kernel::Host* host = nullptr;
    overlay::Netns* ns = nullptr;  ///< namespace the server runs in
    kernel::Cpu* cpu = nullptr;    ///< application core
    std::uint16_t port = 11111;
    /// Per-request application work beyond syscalls.
    sim::Duration service_time = sim::nanoseconds(300);
  };

  SockperfServer(sim::Simulator& sim, Config config);

  std::uint64_t received() const noexcept { return received_; }
  std::uint64_t echoed() const noexcept { return echoed_; }
  kernel::UdpSocket& socket() noexcept { return *sock_; }

 private:
  void begin_drain(bool wakeup);
  void finish_one();

  sim::Simulator& sim_;
  Config cfg_;
  kernel::UdpSocket* sock_;
  bool busy_ = false;
  std::uint64_t received_ = 0;
  std::uint64_t echoed_ = 0;
};

/// Constant-rate UDP sender with optional sampled latency measurement.
///
/// One "thread" per configured CPU, each with its own source port (flow).
/// With reply_every == 1 and a single thread this is sockperf ping-pong;
/// with reply_every == 0 it is pure throughput background load; values in
/// between model the under-load latency mode.
class SockperfClient {
 public:
  struct Config {
    kernel::Host* host = nullptr;
    overlay::Netns* ns = nullptr;
    std::vector<kernel::Cpu*> cpus;  ///< one sender thread per CPU
    std::uint16_t base_src_port = 20000;
    net::Ipv4Addr dst_ip;
    std::uint16_t dst_port = 11111;
    double rate_pps = 1000.0;  ///< aggregate across threads
    std::size_t payload_size = 64;
    /// Packets per send burst (sockperf --burst; sendmmsg-style TX
    /// batching). Background throughput traffic leaves a real client in
    /// bursts, which is what fills deep per-stage batches at the
    /// receiver. 1 = evenly paced.
    int burst = 1;
    /// Request an echo every N packets; 0 = never.
    int reply_every = 0;
    /// Pacing jitter as a fraction of the tick interval (each gap is
    /// uniform in [1-jitter, 1+jitter] x interval). Real senders are
    /// never perfectly periodic; without jitter, periodic sources
    /// phase-lock against each other and latency distributions collapse
    /// into aliasing spikes.
    double jitter = 0.3;
    std::uint64_t seed = 1;
    sim::Time start_at = 0;
    sim::Time stop_at = sim::seconds(1);
    /// Ticks finding this many sends still queued on the CPU are skipped
    /// (a real sender blocks; an unbounded queue would distort timing).
    int max_outstanding = 256;
    /// Reply-probe resilience (container churn): when > 0, a probe whose
    /// requested echo has not arrived within this long retransmits with
    /// the same seq, doubling the wait each attempt up to max_backoff,
    /// at most max_retries times before the probe is abandoned.
    /// 0 = fire-and-forget (the pre-churn behavior).
    sim::Duration reply_timeout = 0;
    int max_retries = 3;
    sim::Duration max_backoff = sim::milliseconds(10);
  };

  SockperfClient(sim::Simulator& sim, Config config);

  /// Schedules the send ticks. Call once before Simulator::run.
  void start();

  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t skipped() const noexcept { return skipped_; }
  std::uint64_t replies() const noexcept { return replies_; }
  /// Timeout-driven resends (each is one extra udp_send syscall, so
  /// total sends on the wire side = sent() + retransmits()).
  std::uint64_t retransmits() const noexcept { return retransmits_; }
  /// Probes abandoned after max_retries unanswered retransmits.
  std::uint64_t probe_timeouts() const noexcept { return probe_timeouts_; }
  /// Echoes that arrived after their probe was abandoned (or for a seq
  /// answered once already) — counted, never measured.
  std::uint64_t late_replies() const noexcept { return late_replies_; }

  /// One-way latency (RTT/2) of replied probes, in nanoseconds.
  const stats::Histogram& latency() const noexcept { return latency_; }

 private:
  /// Retry state for one awaiting-echo probe (reply_timeout > 0 only).
  struct PendingProbe {
    int attempts = 0;  ///< retransmits performed so far
  };

  struct Thread {
    kernel::Cpu* cpu = nullptr;
    std::uint16_t src_port = 0;
    kernel::UdpSocket* sock = nullptr;  ///< only when replies expected
    std::uint64_t next_seq = 0;
    int outstanding = 0;
    bool rx_busy = false;
    std::unordered_map<std::uint64_t, PendingProbe> pending;
  };

  void tick(std::size_t thread_index, std::uint64_t n);
  void send_probe(Thread& t, std::uint64_t seq, bool reply);
  void arm_retry(std::size_t thread_index, std::uint64_t seq, int attempt,
                 sim::Duration wait);
  void on_reply_timeout(std::size_t thread_index, std::uint64_t seq,
                        int attempt);
  void begin_rx(Thread& t, bool wakeup);
  void finish_rx(Thread& t);

  sim::Simulator& sim_;
  Config cfg_;
  std::vector<Thread> threads_;
  /// Every send's payload, sized and zero-filled once at construction:
  /// a send rewrites only its probe bytes (udp_send copies).
  std::vector<std::uint8_t> probe_payload_;
  sim::Duration interval_ = 0;  ///< per-thread tick interval
  sim::Rng rng_;
  std::uint64_t sent_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t replies_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t probe_timeouts_ = 0;
  std::uint64_t late_replies_ = 0;
  stats::Histogram latency_;
};

/// Constant-rate TCP bulk sender (sockperf TCP throughput mode): sends
/// `message_size`-byte messages that TSO segments into MTU frames — the
/// paper's Fig. 13 background workload.
class SockperfTcpSender {
 public:
  struct Config {
    kernel::TcpEndpoint* endpoint = nullptr;
    kernel::Cpu* cpu = nullptr;
    double rate_mps = 20000.0;  ///< messages per second
    std::size_t message_size = 64 * 1024;
    /// Pacing jitter fraction (see SockperfClient::Config::jitter).
    double jitter = 0.2;
    std::uint64_t seed = 1;
    sim::Time start_at = 0;
    sim::Time stop_at = sim::seconds(1);
    /// Skip ticks while more than this many bytes are unacknowledged
    /// (socket send-buffer backpressure).
    std::size_t max_unacked = 4 * 1024 * 1024;
  };

  SockperfTcpSender(sim::Simulator& sim, Config config);

  void start();

  std::uint64_t sent_messages() const noexcept { return sent_; }
  std::uint64_t skipped() const noexcept { return skipped_; }

 private:
  void tick(std::uint64_t n);

  sim::Simulator& sim_;
  Config cfg_;
  /// Every message's bytes, filled once at construction (send copies).
  std::vector<std::uint8_t> payload_;
  sim::Duration interval_ = 0;
  sim::Rng rng_;
  std::uint64_t sent_ = 0;
  std::uint64_t skipped_ = 0;
};

/// Receiving application for TCP bulk traffic: reads the stream, charging
/// per-read syscall/copy costs on its CPU.
class TcpSinkServer {
 public:
  struct Config {
    kernel::TcpEndpoint* endpoint = nullptr;
    kernel::Cpu* cpu = nullptr;
    const kernel::CostModel* cost = nullptr;
  };

  explicit TcpSinkServer(Config config);

  std::uint64_t bytes_received() const noexcept { return bytes_; }

 private:
  Config cfg_;
  std::uint64_t bytes_ = 0;
};

}  // namespace prism::apps
