// Web-serving workload (paper §V-C2): nginx-style static server and a
// wrk2-style constant-throughput client over a single TCP connection.
//
// Requests and responses are length-prefixed messages on the TCP stream,
// each carrying the measurement probe; the response is padded to the
// configured static-file size (the paper serves a <1 KB HTML file).
// The client is open-loop at a constant rate and measures latency from
// each request's *scheduled* send time — wrk2's coordinated-omission-free
// accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/payload.h"
#include "kernel/host.h"
#include "sim/ring.h"
#include "sim/rng.h"
#include "stats/histogram.h"

namespace prism::apps {

/// Single-connection static-content server.
class HttpServer {
 public:
  struct Config {
    kernel::Host* host = nullptr;
    overlay::Netns* ns = nullptr;
    kernel::Cpu* cpu = nullptr;
    kernel::TcpEndpoint* connection = nullptr;
    std::size_t response_size = 1024;  ///< the static file (< 1 KB HTML)
    sim::Duration service_time = sim::microseconds(3);
  };

  explicit HttpServer(Config config);

  std::uint64_t requests_served() const noexcept { return served_; }

 private:
  /// A received request awaiting service.
  struct Request {
    std::optional<Probe> probe;
    std::size_t size = 0;  ///< body bytes, for the read's copy cost
  };

  void on_stream_data(std::span<const std::uint8_t> data);
  void process_next();

  Config cfg_;
  MessageFramer framer_;
  sim::Ring<Request> pending_;
  /// The framed response, zero-padded once: a send rewrites its probe.
  std::vector<std::uint8_t> response_;
  bool busy_ = false;
  std::uint64_t served_ = 0;
};

/// wrk2-style constant-throughput HTTP client on one connection.
class Wrk2Client {
 public:
  struct Config {
    kernel::Host* host = nullptr;
    overlay::Netns* ns = nullptr;
    kernel::Cpu* cpu = nullptr;
    kernel::TcpEndpoint* connection = nullptr;
    double rate_rps = 1000.0;
    std::size_t request_size = 128;
    /// Pacing jitter fraction (see SockperfClient::Config::jitter).
    double jitter = 0.2;
    std::uint64_t seed = 1;
    sim::Time start_at = 0;
    sim::Time stop_at = sim::seconds(1);
  };

  Wrk2Client(sim::Simulator& sim, Config config);

  void start();

  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t completed() const noexcept { return completed_; }

  /// Response latency from the scheduled send instant (wrk2 semantics).
  const stats::Histogram& latency() const noexcept { return latency_; }

  /// Achieved requests per second over [start_at, stop_at].
  double requests_per_second() const noexcept;

 private:
  void tick();
  void on_stream_data(std::span<const std::uint8_t> data);

  sim::Simulator& sim_;
  Config cfg_;
  MessageFramer framer_;
  /// The framed request, zero-padded once: a send rewrites its probe.
  std::vector<std::uint8_t> request_;
  sim::Duration interval_ = 0;
  sim::Rng rng_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t completed_ = 0;
  stats::Histogram latency_;
};

}  // namespace prism::apps
