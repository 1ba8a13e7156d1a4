#include "net/headers.h"

#include <gtest/gtest.h>

#include <vector>

namespace prism::net {
namespace {

/// The first Header::kSize bytes of `buf`, as Header's writer takes them.
template <typename Header>
std::span<std::uint8_t, Header::kSize> front(std::vector<std::uint8_t>& buf) {
  return std::span<std::uint8_t>(buf).template first<Header::kSize>();
}

TEST(EthernetHeaderTest, RoundTrip) {
  EthernetHeader h{MacAddr::make(1), MacAddr::make(2), EtherType::kIpv4};
  std::vector<std::uint8_t> buf(EthernetHeader::kSize);
  h.write(front<EthernetHeader>(buf));
  ASSERT_EQ(buf.size(), EthernetHeader::kSize);
  const auto parsed = EthernetHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->ether_type, h.ether_type);
}

TEST(EthernetHeaderTest, ShortBufferRejected) {
  std::vector<std::uint8_t> buf(13, 0);
  EXPECT_FALSE(EthernetHeader::parse(buf).has_value());
}

TEST(Ipv4HeaderTest, RoundTripWithChecksum) {
  Ipv4Header h;
  h.dscp = 10;
  h.total_length = 120;
  h.identification = 0xbeef;
  h.ttl = 17;
  h.protocol = IpProto::kTcp;
  h.src = Ipv4Addr::of(10, 1, 2, 3);
  h.dst = Ipv4Addr::of(172, 16, 0, 9);
  std::vector<std::uint8_t> buf(Ipv4Header::kSize);
  h.write(front<Ipv4Header>(buf));
  buf.resize(120);  // payload space so total_length is plausible
  const auto parsed = Ipv4Header::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dscp, h.dscp);
  EXPECT_EQ(parsed->total_length, h.total_length);
  EXPECT_EQ(parsed->identification, h.identification);
  EXPECT_EQ(parsed->ttl, h.ttl);
  EXPECT_EQ(parsed->protocol, h.protocol);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
}

TEST(Ipv4HeaderTest, CorruptChecksumRejected) {
  Ipv4Header h;
  h.total_length = 20;
  h.src = Ipv4Addr::of(1, 2, 3, 4);
  h.dst = Ipv4Addr::of(5, 6, 7, 8);
  std::vector<std::uint8_t> buf(Ipv4Header::kSize);
  h.write(front<Ipv4Header>(buf));
  buf[13] ^= 0x01;  // flip a bit in the src address
  EXPECT_FALSE(Ipv4Header::parse(buf).has_value());
}

TEST(Ipv4HeaderTest, BadVersionRejected) {
  std::vector<std::uint8_t> buf(20, 0);
  buf[0] = 0x65;  // version 6
  EXPECT_FALSE(Ipv4Header::parse(buf).has_value());
}

TEST(Ipv4HeaderTest, TotalLengthBeyondBufferRejected) {
  Ipv4Header h;
  h.total_length = 2000;
  std::vector<std::uint8_t> buf(Ipv4Header::kSize);
  h.write(front<Ipv4Header>(buf));  // buffer only 20 bytes
  EXPECT_FALSE(Ipv4Header::parse(buf).has_value());
}

TEST(UdpHeaderTest, RoundTripAndChecksum) {
  const std::vector<std::uint8_t> payload = {'h', 'e', 'l', 'l', 'o'};
  const auto src = Ipv4Addr::of(10, 0, 0, 1);
  const auto dst = Ipv4Addr::of(10, 0, 0, 2);
  UdpHeader h;
  h.src_port = 1234;
  h.dst_port = 5678;
  h.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  std::vector<std::uint8_t> buf(UdpHeader::kSize);
  h.write(front<UdpHeader>(buf), src, dst, payload);
  buf.insert(buf.end(), payload.begin(), payload.end());

  const auto parsed = UdpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 1234);
  EXPECT_EQ(parsed->dst_port, 5678);
  EXPECT_EQ(parsed->length, h.length);
  EXPECT_TRUE(UdpHeader::verify_checksum(buf, src, dst));
}

TEST(UdpHeaderTest, ChecksumDetectsPayloadCorruption) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const auto src = Ipv4Addr::of(10, 0, 0, 1);
  const auto dst = Ipv4Addr::of(10, 0, 0, 2);
  UdpHeader h;
  h.src_port = 1;
  h.dst_port = 2;
  h.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  std::vector<std::uint8_t> buf(UdpHeader::kSize);
  h.write(front<UdpHeader>(buf), src, dst, payload);
  buf.insert(buf.end(), payload.begin(), payload.end());
  buf.back() ^= 0xff;
  EXPECT_FALSE(UdpHeader::verify_checksum(buf, src, dst));
}

TEST(UdpHeaderTest, ChecksumDetectsWrongPseudoHeader) {
  const std::vector<std::uint8_t> payload = {9};
  const auto src = Ipv4Addr::of(10, 0, 0, 1);
  const auto dst = Ipv4Addr::of(10, 0, 0, 2);
  UdpHeader h;
  h.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  std::vector<std::uint8_t> buf(UdpHeader::kSize);
  h.write(front<UdpHeader>(buf), src, dst, payload);
  buf.insert(buf.end(), payload.begin(), payload.end());
  EXPECT_FALSE(
      UdpHeader::verify_checksum(buf, src, Ipv4Addr::of(10, 0, 0, 3)));
}

TEST(UdpHeaderTest, BadLengthRejected) {
  std::vector<std::uint8_t> buf(8, 0);
  buf[5] = 4;  // length 4 < header size
  EXPECT_FALSE(UdpHeader::parse(buf).has_value());
}

TEST(TcpHeaderTest, RoundTripAndChecksum) {
  const std::vector<std::uint8_t> payload = {'d', 'a', 't', 'a'};
  const auto src = Ipv4Addr::of(192, 168, 0, 1);
  const auto dst = Ipv4Addr::of(192, 168, 0, 2);
  TcpHeader h;
  h.src_port = 80;
  h.dst_port = 54321;
  h.seq = 0x01020304;
  h.ack = 0x0a0b0c0d;
  h.flags = TcpFlags::kAck | TcpFlags::kPsh;
  h.window = 512;
  std::vector<std::uint8_t> buf(TcpHeader::kSize);
  h.write(front<TcpHeader>(buf), src, dst, payload);
  buf.insert(buf.end(), payload.begin(), payload.end());

  const auto parsed = TcpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 80);
  EXPECT_EQ(parsed->dst_port, 54321);
  EXPECT_EQ(parsed->seq, 0x01020304u);
  EXPECT_EQ(parsed->ack, 0x0a0b0c0du);
  EXPECT_EQ(parsed->flags, TcpFlags::kAck | TcpFlags::kPsh);
  EXPECT_EQ(parsed->window, 512);
  EXPECT_TRUE(TcpHeader::verify_checksum(buf, src, dst));
}

TEST(TcpHeaderTest, ChecksumDetectsCorruption) {
  const auto src = Ipv4Addr::of(1, 1, 1, 1);
  const auto dst = Ipv4Addr::of(2, 2, 2, 2);
  TcpHeader h;
  h.seq = 42;
  std::vector<std::uint8_t> buf(TcpHeader::kSize);
  h.write(front<TcpHeader>(buf), src, dst, {});
  buf[4] ^= 0x80;  // corrupt seq
  EXPECT_FALSE(TcpHeader::verify_checksum(buf, src, dst));
}

TEST(VxlanHeaderTest, RoundTrip) {
  VxlanHeader h{0xabcdef};
  std::vector<std::uint8_t> buf(VxlanHeader::kSize);
  h.write(front<VxlanHeader>(buf));
  ASSERT_EQ(buf.size(), VxlanHeader::kSize);
  const auto parsed = VxlanHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->vni, 0xabcdefu);
}

TEST(VxlanHeaderTest, MissingVniFlagRejected) {
  std::vector<std::uint8_t> buf(8, 0);
  EXPECT_FALSE(VxlanHeader::parse(buf).has_value());
}

TEST(VxlanHeaderTest, ShortBufferRejected) {
  std::vector<std::uint8_t> buf(7, 0);
  EXPECT_FALSE(VxlanHeader::parse(buf).has_value());
}

}  // namespace
}  // namespace prism::net
