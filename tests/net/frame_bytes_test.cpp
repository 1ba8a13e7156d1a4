// Byte-exact pins of built frames. Every header the simulator writes is
// compared against a hex literal of its wire bytes, so a codec rewrite that
// moves one bit fails here before it shows as a moved fingerprint.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"

namespace prism::net {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(2 * bytes.size());
  for (const std::uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0x0f];
  }
  return s;
}

/// `n` payload bytes of a fixed pattern that every byte value can hit.
std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  return p;
}

FrameSpec inner_spec() {
  FrameSpec s;
  s.src_mac = MacAddr::make(101);
  s.dst_mac = MacAddr::make(202);
  s.src_ip = Ipv4Addr::of(172, 17, 0, 2);
  s.dst_ip = Ipv4Addr::of(172, 17, 0, 4);
  s.src_port = 21000;
  s.dst_port = 11112;
  s.dscp = 46;
  return s;
}

FrameSpec outer_spec() {
  FrameSpec s;
  s.src_mac = MacAddr::make(1);
  s.dst_mac = MacAddr::make(2);
  s.src_ip = Ipv4Addr::of(10, 0, 0, 1);
  s.dst_ip = Ipv4Addr::of(10, 0, 0, 2);
  s.src_port = 0xc123;
  return s;
}

TcpHeader segment_header(std::uint8_t flags) {
  TcpHeader h;
  h.seq = 0x11223344;
  h.ack = 0xa0b0c0d0;
  h.flags = flags;
  h.window = 0x7210;
  return h;
}

// Header bytes in wire order, one header a line: Ethernet (14), IPv4 (20,
// DSCP 46), then UDP (8) or TCP (20).
constexpr const char* kUdp64Headers =
    "0200000000ca020000000065" "0800"
    "45b8005c00000000401121b1ac110002ac110004"
    "52082b6800489b56";
constexpr const char* kTcp1400Headers =
    "0200000000ca020000000065" "0800"
    "45b805a00000000040061c78ac110002ac110004"
    "52082b6811223344a0b0c0d050187210e1c10000";
constexpr const char* kTcpAck =
    "0200000000ca020000000065" "0800"
    "45b8002800000000400621f0ac110002ac110004"
    "52082b6811223344a0b0c0d050107210c2430000";
// Outer Ethernet (14), IPv4 (20), UDP to port 4789 with a zero checksum
// (8), and VXLAN with VNI 42 (8).
constexpr const char* kVxlanOuterForUdp64 =
    "020000000002020000000001" "0800"
    "4500008e000000004011665d0a0000010a000002"
    "c12312b5007a0000"
    "0800000000002a00";
constexpr const char* kVxlanOuterForTcp1400 =
    "020000000002020000000001" "0800"
    "450005d200000000401161190a0000010a000002"
    "c12312b505be0000"
    "0800000000002a00";

TEST(FrameBytesTest, UdpFrameWith64BytePayload) {
  const auto payload = pattern(64);
  const PacketBuf frame = build_udp_frame(inner_spec(), payload);
  EXPECT_EQ(hex(frame.bytes()), std::string(kUdp64Headers) + hex(payload));
}

TEST(FrameBytesTest, TcpSegmentWith1400BytePayload) {
  const auto payload = pattern(1400);
  const PacketBuf frame = build_tcp_frame(
      inner_spec(), segment_header(TcpFlags::kAck | TcpFlags::kPsh),
      payload);
  EXPECT_EQ(hex(frame.bytes()), std::string(kTcp1400Headers) + hex(payload));
}

TEST(FrameBytesTest, TcpAck) {
  const PacketBuf frame =
      build_tcp_frame(inner_spec(), segment_header(TcpFlags::kAck), {});
  EXPECT_EQ(hex(frame.bytes()), kTcpAck);
}

TEST(FrameBytesTest, VxlanEncapsulatedUdpFrame) {
  const auto payload = pattern(64);
  PacketBuf frame = build_udp_frame(inner_spec(), payload);
  vxlan_encapsulate(frame, outer_spec(), 42);
  EXPECT_EQ(hex(frame.bytes()), std::string(kVxlanOuterForUdp64) +
                                    kUdp64Headers + hex(payload));
}

TEST(FrameBytesTest, VxlanEncapsulatedTcpSegment) {
  const auto payload = pattern(1400);
  PacketBuf frame = build_tcp_frame(
      inner_spec(), segment_header(TcpFlags::kAck | TcpFlags::kPsh),
      payload);
  vxlan_encapsulate(frame, outer_spec(), 42);
  EXPECT_EQ(hex(frame.bytes()), std::string(kVxlanOuterForTcp1400) +
                                    kTcp1400Headers + hex(payload));
}

TEST(FrameBytesTest, EncapsulationGrowsABlockWithoutHeadroom) {
  const auto payload = pattern(64);
  const PacketBuf inner = build_udp_frame(inner_spec(), payload);
  PacketBuf frame = PacketBuf::with_headroom(0, inner.bytes());
  ASSERT_EQ(frame.headroom(), 0u);
  vxlan_encapsulate(frame, outer_spec(), 42);
  EXPECT_GE(frame.headroom(), kEncapHeadroom);
  EXPECT_EQ(hex(frame.bytes()), std::string(kVxlanOuterForUdp64) +
                                    kUdp64Headers + hex(payload));
}

}  // namespace
}  // namespace prism::net
