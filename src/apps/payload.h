// Application payload encoding.
//
// Workload generators embed sequence numbers and send timestamps *inside
// the packet payload*, exactly as sockperf/memaslap/wrk do: measurement
// data travels through the real byte path (encapsulation, GRO merges,
// socket copies), so any corruption or mis-delivery breaks the measurement
// loudly instead of silently.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/time.h"

namespace prism::apps {

/// Probe header embedded at the start of measurement payloads.
struct Probe {
  std::uint64_t seq = 0;
  sim::Time sent_at = 0;
  /// Echo requested (sockperf --reply-every semantics).
  bool reply = false;
};

/// Bytes occupied by an encoded probe.
constexpr std::size_t kProbeSize = 24;

/// Writes the probe into the first kProbeSize bytes of `out` and leaves
/// the rest as it is — for send loops that keep one zero-padded payload
/// and rewrite its probe per packet. Throws std::invalid_argument when
/// `out` is shorter than kProbeSize.
void encode_probe_into(const Probe& probe, std::span<std::uint8_t> out);

/// Decodes a probe from the start of `payload`; nullopt if too short.
std::optional<Probe> decode_probe(std::span<const std::uint8_t> payload);

/// Length-prefixed message framing for TCP byte streams
/// ([u32 length][body...]). The stream bytes live in one buffer that
/// keeps its capacity, so a warm framer allocates nothing.
class MessageFramer {
 public:
  /// Bytes of the length prefix in front of every body.
  static constexpr std::size_t kPrefixSize = 4;

  /// Appends stream bytes.
  void push(std::span<const std::uint8_t> data);

  /// Extracts the next complete message body, nullopt when incomplete.
  /// The view points into the framer and stays valid until the next
  /// push().
  std::optional<std::span<const std::uint8_t>> next();

  /// Frames a message body for sending.
  static std::vector<std::uint8_t> frame(
      std::span<const std::uint8_t> body);

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;  ///< first byte next() has not consumed
};

}  // namespace prism::apps
