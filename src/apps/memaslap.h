// memaslap-style memcached load generator (paper §V-C1).
//
// Closed-loop client: `concurrency` outstanding requests per thread, each
// completion immediately issuing the next request (a get or a set per the
// configured ratio). Reports operation throughput and request latency —
// the metrics of the paper's Fig. 12. Slots time out so UDP drops under
// overload cannot wedge the loop.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "apps/memcached.h"
#include "sim/rng.h"
#include "stats/histogram.h"

namespace prism::apps {

class MemaslapClient {
 public:
  struct Config {
    kernel::Host* host = nullptr;
    overlay::Netns* ns = nullptr;
    kernel::Cpu* cpu = nullptr;
    std::uint16_t src_port = 30000;
    net::Ipv4Addr server_ip;
    std::uint16_t server_port = 11211;
    int concurrency = 16;
    double get_ratio = 0.9;  // memaslap default 9:1 get:set
    int key_count = 10000;
    std::size_t value_size = 1024;
    sim::Time start_at = 0;
    sim::Time stop_at = sim::seconds(1);
    sim::Duration request_timeout = sim::milliseconds(50);
    /// Same-request retries after a timeout (container churn
    /// resilience): the request resends with its original seq after a
    /// backoff that doubles per attempt up to max_backoff. 0 = abandon
    /// on first timeout and issue a fresh request (the pre-churn
    /// behavior).
    int max_retries = 0;
    sim::Duration retry_backoff = sim::milliseconds(1);
    sim::Duration max_backoff = sim::milliseconds(8);
    std::uint64_t seed = 1;
  };

  MemaslapClient(sim::Simulator& sim, Config config);

  /// Launches the closed loop. Call once before Simulator::run.
  void start();

  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t gets() const noexcept { return gets_; }
  std::uint64_t sets() const noexcept { return sets_; }
  std::uint64_t timeouts() const noexcept { return timeouts_; }
  /// Timeout-driven same-request resends (each is one extra udp_send, so
  /// total request sends = gets() + sets() + retries()).
  std::uint64_t retries() const noexcept { return retries_; }

  /// Request-response latency (full RTT, as memaslap reports).
  const stats::Histogram& latency() const noexcept { return latency_; }

  /// Achieved operations per second over [start_at, stop_at].
  double ops_per_second() const noexcept;

 private:
  void issue(int slot);
  void send_current(int slot);
  void on_timeout(int slot, std::uint64_t seq);
  void begin_rx(bool wakeup);
  void finish_rx();

  sim::Simulator& sim_;
  Config cfg_;
  kernel::UdpSocket* sock_;
  sim::Rng rng_;
  std::uint64_t next_seq_ = 0;
  /// seq -> slot for requests in flight.
  std::unordered_map<std::uint64_t, int> in_flight_;
  /// Per-slot current request, kept for same-seq retries.
  struct Slot {
    KvRequest req;
    int attempts = 0;  ///< retries performed for the current request
  };
  std::vector<Slot> slots_;
  /// Encoding buffer of the request being sent (udp_send copies).
  std::vector<std::uint8_t> tx_;
  bool rx_busy_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t sets_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  stats::Histogram latency_;
};

}  // namespace prism::apps
