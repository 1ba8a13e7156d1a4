// Wire-format header codecs: Ethernet, IPv4, UDP, TCP and VXLAN.
//
// Packets in the simulator are real byte buffers; every stage parses and
// writes genuine wire formats (network byte order, real checksums). This
// keeps the encapsulation/decapsulation path honest: a VXLAN decap bug or a
// wrong length field fails in the simulated stack just as it would in the
// kernel. Each header has one writer, which stores its kSize wire bytes
// into a span the caller supplies; frame builders pass the frame block's
// headroom (PacketBuf::push_front), as the kernel's skb_push does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "net/checksum.h"
#include "net/ip.h"
#include "net/mac.h"

namespace prism::net {

/// EtherType values used by the simulator.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
};

/// IP protocol numbers used by the simulator.
enum class IpProto : std::uint8_t {
  kTcp = 6,
  kUdp = 17,
};

/// UDP destination port carrying VXLAN (IANA assigned).
constexpr std::uint16_t kVxlanPort = 4789;

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;

  MacAddr dst;
  MacAddr src;
  EtherType ether_type = EtherType::kIpv4;

  void write(std::span<std::uint8_t, kSize> out) const noexcept;
  static std::optional<EthernetHeader> parse(
      std::span<const std::uint8_t> data);
};

struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  // no options

  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  // header + payload, bytes
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  IpProto protocol = IpProto::kUdp;
  Ipv4Addr src;
  Ipv4Addr dst;

  /// Writes the header with a correct header checksum.
  void write(std::span<std::uint8_t, kSize> out) const noexcept;

  /// Parses and verifies the header checksum; returns nullopt on a short
  /// buffer, non-IPv4 version, options (IHL != 5) or checksum mismatch.
  static std::optional<Ipv4Header> parse(std::span<const std::uint8_t> data);
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload, bytes

  /// Writes the header with the UDP checksum over the IPv4 pseudo-header
  /// and `payload`.
  void write(std::span<std::uint8_t, kSize> out, Ipv4Addr src_ip,
             Ipv4Addr dst_ip,
             std::span<const std::uint8_t> payload) const noexcept;

  /// Writes the header with checksum zero ("no checksum", RFC 768). VXLAN
  /// outer headers use this: RFC 7348 says the outer UDP checksum SHOULD
  /// be transmitted as zero, which is what Linux does by default.
  void write_no_checksum(std::span<std::uint8_t, kSize> out) const noexcept;

  /// Parses the header. Checksum verification is separate (verify_checksum)
  /// because it needs the pseudo-header addresses.
  static std::optional<UdpHeader> parse(std::span<const std::uint8_t> data);

  /// Verifies the checksum of a full UDP datagram (header + payload).
  static bool verify_checksum(std::span<const std::uint8_t> datagram,
                              Ipv4Addr src_ip, Ipv4Addr dst_ip);
};

/// TCP flag bits.
struct TcpFlags {
  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;
};

struct TcpHeader {
  static constexpr std::size_t kSize = 20;  // no options

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0xffff;

  /// Writes the header with the TCP checksum over the IPv4
  /// pseudo-header and `payload`.
  void write(std::span<std::uint8_t, kSize> out, Ipv4Addr src_ip,
             Ipv4Addr dst_ip,
             std::span<const std::uint8_t> payload) const noexcept;

  static std::optional<TcpHeader> parse(std::span<const std::uint8_t> data);

  static bool verify_checksum(std::span<const std::uint8_t> segment,
                              Ipv4Addr src_ip, Ipv4Addr dst_ip);
};

/// VXLAN header (RFC 7348): flags + 24-bit VNI.
struct VxlanHeader {
  static constexpr std::size_t kSize = 8;

  std::uint32_t vni = 0;  // 24-bit virtual network identifier

  void write(std::span<std::uint8_t, kSize> out) const noexcept;

  /// Returns nullopt on short buffer or missing valid-VNI flag.
  static std::optional<VxlanHeader> parse(std::span<const std::uint8_t> data);
};

// ---------------------------------------------------------------------------
// Inline definitions. The codecs run several times per simulated packet, so
// they are defined here (rather than in headers.cpp) to inline into the
// parse/build loops of other translation units.

namespace detail {

inline void set_u16(std::span<std::uint8_t> d, std::size_t at,
                    std::uint16_t v) noexcept {
  d[at] = static_cast<std::uint8_t>(v >> 8);
  d[at + 1] = static_cast<std::uint8_t>(v);
}

inline void set_u32(std::span<std::uint8_t> d, std::size_t at,
                    std::uint32_t v) noexcept {
  set_u16(d, at, static_cast<std::uint16_t>(v >> 16));
  set_u16(d, at + 2, static_cast<std::uint16_t>(v));
}

inline std::uint16_t get_u16(std::span<const std::uint8_t> d,
                             std::size_t at) {
  return static_cast<std::uint16_t>((d[at] << 8) | d[at + 1]);
}

inline std::uint32_t get_u32(std::span<const std::uint8_t> d,
                             std::size_t at) {
  return (static_cast<std::uint32_t>(get_u16(d, at)) << 16) |
         get_u16(d, at + 2);
}

// Adds the IPv4 pseudo-header for UDP/TCP checksums.
inline void add_pseudo_header(ChecksumAccumulator& acc, Ipv4Addr src,
                              Ipv4Addr dst, IpProto proto,
                              std::uint16_t l4_length) {
  acc.add_u32(src.value);
  acc.add_u32(dst.value);
  acc.add_u16(static_cast<std::uint16_t>(proto));
  acc.add_u16(l4_length);
}

}  // namespace detail

// ---------------------------------------------------------------- Ethernet

inline void EthernetHeader::write(
    std::span<std::uint8_t, kSize> out) const noexcept {
  std::copy(dst.bytes.begin(), dst.bytes.end(), out.begin());
  std::copy(src.bytes.begin(), src.bytes.end(), out.begin() + 6);
  detail::set_u16(out, 12, static_cast<std::uint16_t>(ether_type));
}

inline std::optional<EthernetHeader> EthernetHeader::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  EthernetHeader h;
  std::copy(data.begin(), data.begin() + 6, h.dst.bytes.begin());
  std::copy(data.begin() + 6, data.begin() + 12, h.src.bytes.begin());
  h.ether_type = static_cast<EtherType>(detail::get_u16(data, 12));
  return h;
}

// -------------------------------------------------------------------- IPv4

inline void Ipv4Header::write(
    std::span<std::uint8_t, kSize> out) const noexcept {
  const auto proto = static_cast<std::uint8_t>(protocol);
  // Header checksum computed directly from the fields: the one's-complement
  // sum of the ten 16-bit header words (checksum word zero), exactly what
  // internet_checksum() would produce over the written bytes.
  std::uint32_t s = (0x4500u | (static_cast<std::uint32_t>(dscp) << 2)) +
                    total_length + identification +
                    ((static_cast<std::uint32_t>(ttl) << 8) | proto) +
                    (src.value >> 16) + (src.value & 0xffff) +
                    (dst.value >> 16) + (dst.value & 0xffff);
  s = (s & 0xffff) + (s >> 16);
  s = (s & 0xffff) + (s >> 16);
  const auto csum = static_cast<std::uint16_t>(~s);

  out[0] = 0x45;  // version 4, IHL 5
  out[1] = static_cast<std::uint8_t>(dscp << 2);
  detail::set_u16(out, 2, total_length);
  detail::set_u16(out, 4, identification);
  detail::set_u16(out, 6, 0);  // flags + fragment offset (DF handled by TSO)
  out[8] = ttl;
  out[9] = proto;
  detail::set_u16(out, 10, csum);
  detail::set_u32(out, 12, src.value);
  detail::set_u32(out, 16, dst.value);
}

inline std::optional<Ipv4Header> Ipv4Header::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  if ((data[0] >> 4) != 4) return std::nullopt;
  if ((data[0] & 0x0f) != 5) return std::nullopt;  // options unsupported
  if (internet_checksum(data.first(kSize)) != 0) return std::nullopt;
  Ipv4Header h;
  h.dscp = static_cast<std::uint8_t>(data[1] >> 2);
  h.total_length = detail::get_u16(data, 2);
  h.identification = detail::get_u16(data, 4);
  h.ttl = data[8];
  h.protocol = static_cast<IpProto>(data[9]);
  h.src = Ipv4Addr{detail::get_u32(data, 12)};
  h.dst = Ipv4Addr{detail::get_u32(data, 16)};
  if (h.total_length < kSize || h.total_length > data.size()) {
    return std::nullopt;
  }
  return h;
}

// --------------------------------------------------------------------- UDP

inline void UdpHeader::write(
    std::span<std::uint8_t, kSize> out, Ipv4Addr src_ip, Ipv4Addr dst_ip,
    std::span<const std::uint8_t> payload) const noexcept {
  ChecksumAccumulator acc;
  detail::add_pseudo_header(acc, src_ip, dst_ip, IpProto::kUdp, length);
  acc.add_u16(src_port);
  acc.add_u16(dst_port);
  acc.add_u16(length);
  acc.add_u16(0);
  acc.add(payload);
  std::uint16_t csum = acc.finish();
  if (csum == 0) csum = 0xffff;  // RFC 768: 0 means "no checksum"
  write_no_checksum(out);
  detail::set_u16(out, 6, csum);
}

inline void UdpHeader::write_no_checksum(
    std::span<std::uint8_t, kSize> out) const noexcept {
  detail::set_u16(out, 0, src_port);
  detail::set_u16(out, 2, dst_port);
  detail::set_u16(out, 4, length);
  detail::set_u16(out, 6, 0);  // RFC 768: 0 means "no checksum"
}

inline std::optional<UdpHeader> UdpHeader::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  UdpHeader h;
  h.src_port = detail::get_u16(data, 0);
  h.dst_port = detail::get_u16(data, 2);
  h.length = detail::get_u16(data, 4);
  if (h.length < kSize || h.length > data.size()) return std::nullopt;
  return h;
}

// --------------------------------------------------------------------- TCP

inline void TcpHeader::write(
    std::span<std::uint8_t, kSize> out, Ipv4Addr src_ip, Ipv4Addr dst_ip,
    std::span<const std::uint8_t> payload) const noexcept {
  const auto l4_length = static_cast<std::uint16_t>(kSize + payload.size());
  ChecksumAccumulator acc;
  detail::add_pseudo_header(acc, src_ip, dst_ip, IpProto::kTcp, l4_length);
  acc.add_u16(src_port);
  acc.add_u16(dst_port);
  acc.add_u32(seq);
  acc.add_u32(ack);
  acc.add_u16(static_cast<std::uint16_t>((5u << 12) | flags));
  acc.add_u16(window);
  acc.add_u16(0);  // checksum placeholder
  acc.add_u16(0);  // urgent pointer
  acc.add(payload);
  const std::uint16_t csum = acc.finish();

  detail::set_u16(out, 0, src_port);
  detail::set_u16(out, 2, dst_port);
  detail::set_u32(out, 4, seq);
  detail::set_u32(out, 8, ack);
  detail::set_u16(out, 12, static_cast<std::uint16_t>((5u << 12) | flags));
  detail::set_u16(out, 14, window);
  detail::set_u16(out, 16, csum);
  detail::set_u16(out, 18, 0);  // urgent pointer
}

inline std::optional<TcpHeader> TcpHeader::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  const std::uint16_t off_flags = detail::get_u16(data, 12);
  if ((off_flags >> 12) != 5) return std::nullopt;  // options unsupported
  TcpHeader h;
  h.src_port = detail::get_u16(data, 0);
  h.dst_port = detail::get_u16(data, 2);
  h.seq = detail::get_u32(data, 4);
  h.ack = detail::get_u32(data, 8);
  h.flags = static_cast<std::uint8_t>(off_flags & 0x3f);
  h.window = detail::get_u16(data, 14);
  return h;
}

// ------------------------------------------------------------------- VXLAN

inline void VxlanHeader::write(
    std::span<std::uint8_t, kSize> out) const noexcept {
  detail::set_u32(out, 0, 0x08000000u);  // flags: valid VNI; reserved
  detail::set_u32(out, 4, vni << 8);     // 24-bit VNI; reserved
}

inline std::optional<VxlanHeader> VxlanHeader::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  if ((data[0] & 0x08) == 0) return std::nullopt;  // VNI flag required
  VxlanHeader h;
  h.vni = (static_cast<std::uint32_t>(data[4]) << 16) |
          (static_cast<std::uint32_t>(data[5]) << 8) | data[6];
  return h;
}

}  // namespace prism::net
