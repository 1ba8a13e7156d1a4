#include "apps/payload.h"

#include <algorithm>
#include <stdexcept>

namespace prism::apps {

namespace {

void set_u64(std::span<std::uint8_t> d, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    d[at + i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

std::uint64_t get_u64(std::span<const std::uint8_t> d, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[at + static_cast<size_t>(i)];
  return v;
}

}  // namespace

void encode_probe_into(const Probe& probe, std::span<std::uint8_t> out) {
  if (out.size() < kProbeSize) {
    throw std::invalid_argument("encode_probe: payload smaller than probe");
  }
  set_u64(out, 0, probe.seq);
  set_u64(out, 8, static_cast<std::uint64_t>(probe.sent_at));
  out[16] = probe.reply ? 1 : 0;
  std::fill(out.begin() + 17, out.begin() + kProbeSize, 0);  // reserved
}

std::optional<Probe> decode_probe(std::span<const std::uint8_t> payload) {
  if (payload.size() < kProbeSize) return std::nullopt;
  Probe p;
  p.seq = get_u64(payload, 0);
  p.sent_at = static_cast<sim::Time>(get_u64(payload, 8));
  p.reply = payload[16] != 0;
  return p;
}

void MessageFramer::push(std::span<const std::uint8_t> data) {
  // Drop the consumed prefix first: all of it once everything is
  // consumed, else once it is more than half the buffer.
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  } else if (2 * head_ > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<std::span<const std::uint8_t>> MessageFramer::next() {
  const std::span<const std::uint8_t> rest =
      std::span<const std::uint8_t>(buffer_).subspan(head_);
  if (rest.size() < kPrefixSize) return std::nullopt;
  const std::uint32_t len = (static_cast<std::uint32_t>(rest[0]) << 24) |
                            (static_cast<std::uint32_t>(rest[1]) << 16) |
                            (static_cast<std::uint32_t>(rest[2]) << 8) |
                            static_cast<std::uint32_t>(rest[3]);
  if (rest.size() - kPrefixSize < len) return std::nullopt;
  head_ += kPrefixSize + len;
  return rest.subspan(kPrefixSize, len);
}

std::vector<std::uint8_t> MessageFramer::frame(
    std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + body.size());
  const auto len = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(len >> 24));
  out.push_back(static_cast<std::uint8_t>(len >> 16));
  out.push_back(static_cast<std::uint8_t>(len >> 8));
  out.push_back(static_cast<std::uint8_t>(len));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace prism::apps
