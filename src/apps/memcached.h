// Memcached-style key-value store server and wire protocol (paper §V-C1).
//
// A real in-memory store behind a compact binary request/response protocol
// carried over UDP (memcached's UDP transport). Requests and responses
// embed the measurement probe so the client can attribute latency
// end-to-end through the real byte path.
//
// Request  body: [probe(24)] [op(1)] [keylen(2)] [key] [vallen(4)] [value]
// Response body: [probe(24)] [status(1)] [vallen(4)] [value]
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/payload.h"
#include "kernel/host.h"

namespace prism::apps {

enum class KvOp : std::uint8_t { kGet = 0, kSet = 1 };
enum class KvStatus : std::uint8_t {
  kHit = 0,
  kMiss = 1,
  kStored = 2,
  kError = 3,
};

struct KvRequest {
  Probe probe;
  KvOp op = KvOp::kGet;
  std::string key;
  std::vector<std::uint8_t> value;  // set only
};

struct KvResponse {
  Probe probe;
  KvStatus status = KvStatus::kError;
  std::vector<std::uint8_t> value;  // get-hit only
};

/// Encodes into `out`, replacing its bytes and keeping its capacity, so
/// a buffer reused across requests stops allocating once warm.
void encode_kv_request(const KvRequest& req, std::vector<std::uint8_t>& out);
std::optional<KvRequest> decode_kv_request(
    std::span<const std::uint8_t> bytes);
/// Encodes into `out`, as encode_kv_request does.
void encode_kv_response(const KvResponse& resp,
                        std::vector<std::uint8_t>& out);
std::optional<KvResponse> decode_kv_response(
    std::span<const std::uint8_t> bytes);

/// The server: UDP request/response over a real hash-map store.
class MemcachedServer {
 public:
  struct Config {
    kernel::Host* host = nullptr;
    overlay::Netns* ns = nullptr;
    kernel::Cpu* cpu = nullptr;
    std::uint16_t port = 11211;
    sim::Duration get_service = sim::nanoseconds(1500);
    sim::Duration set_service = sim::nanoseconds(2000);
  };

  MemcachedServer(sim::Simulator& sim, Config config);

  /// Pre-populates keys "key<0..count-1>" with `value_size`-byte values
  /// (memaslap's warm-up phase, done out of band).
  void preload(int count, std::size_t value_size);

  std::uint64_t gets() const noexcept { return gets_; }
  std::uint64_t sets() const noexcept { return sets_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::size_t store_size() const noexcept { return store_.size(); }

  /// Canonical key naming shared with the client.
  static std::string key_name(int index);

 private:
  void begin_drain(bool wakeup);
  void finish_one();

  sim::Simulator& sim_;
  Config cfg_;
  kernel::UdpSocket* sock_;
  bool busy_ = false;
  std::unordered_map<std::string, std::vector<std::uint8_t>> store_;
  /// The response being served, reused across requests (one is served
  /// at a time).
  KvResponse resp_;
  std::vector<std::uint8_t> tx_;
  std::uint64_t gets_ = 0;
  std::uint64_t sets_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace prism::apps
