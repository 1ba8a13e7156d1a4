#include "net/packet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace prism::net {
namespace {

std::vector<std::uint8_t> bytes_of(const char* s) {
  return {s, s + std::string(s).size()};
}

/// Pushes `header` onto the front of `p` and writes it there.
void prepend(PacketBuf& p, std::span<const std::uint8_t> header) {
  const auto front = p.push_front(header.size());
  std::copy(header.begin(), header.end(), front.begin());
}

FrameSpec test_spec() {
  FrameSpec spec;
  spec.src_mac = MacAddr::make(1);
  spec.dst_mac = MacAddr::make(2);
  spec.src_ip = Ipv4Addr::of(10, 0, 0, 1);
  spec.dst_ip = Ipv4Addr::of(10, 0, 0, 2);
  spec.src_port = 40000;
  spec.dst_port = 11211;
  return spec;
}

TEST(PacketBufTest, HeadroomPrependWithoutRealloc) {
  const auto payload = bytes_of("payload");
  auto p = PacketBuf::with_headroom(10, payload);
  EXPECT_EQ(p.size(), 7u);
  EXPECT_EQ(p.headroom(), 10u);
  const auto hdr = bytes_of("hdr");
  prepend(p, hdr);
  EXPECT_EQ(p.size(), 10u);
  EXPECT_EQ(p.headroom(), 7u);
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "hdrpayload");
}

TEST(PacketBufTest, PrependGrowsWhenHeadroomExhausted) {
  const auto payload = bytes_of("x");
  auto p = PacketBuf::with_headroom(2, payload);
  const auto big = bytes_of("0123456789");
  prepend(p, big);
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "0123456789x");
  // Fresh headroom is available after the grow.
  EXPECT_GE(p.headroom(), kEncapHeadroom);
}

TEST(PacketBufTest, PopFrontStripsHeaders) {
  auto p = PacketBuf::with_headroom(0, bytes_of("headerbody"));
  p.pop_front(6);
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "body");
}

TEST(PacketBufTest, PopBeyondEndThrows) {
  auto p = PacketBuf::with_headroom(0, bytes_of("ab"));
  EXPECT_THROW(p.pop_front(3), std::out_of_range);
}

TEST(PacketBufTest, PushAfterPopReusesSpace) {
  auto p = PacketBuf::with_headroom(0, bytes_of("outerinner"));
  p.pop_front(5);
  prepend(p, bytes_of("NEW__"));
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "NEW__inner");
}

TEST(PacketBufTest, DefaultHandleHoldsNoBytes) {
  PacketBuf empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.bytes().empty());
  EXPECT_EQ(empty.headroom(), 0u);
}

TEST(PacketBufTest, MovedFromBufferIsEmpty) {
  auto p = PacketBuf::with_headroom(4, bytes_of("frame"));
  const std::uint8_t* data = p.bytes().data();
  PacketBuf q = std::move(p);
  EXPECT_TRUE(p.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(p.bytes().empty());
  EXPECT_EQ(q.bytes().data(), data);  // the block moved, not the bytes
  PacketBuf r;
  r = std::move(q);
  EXPECT_TRUE(q.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(std::string(r.bytes().begin(), r.bytes().end()), "frame");
}

TEST(PacketBufTest, CopyIsDeep) {
  auto p = PacketBuf::with_headroom(8, bytes_of("original"));
  PacketBuf copy = p;
  EXPECT_NE(copy.bytes().data(), p.bytes().data());
  EXPECT_EQ(copy.headroom(), p.headroom());
  copy.mutable_bytes()[0] = 'X';
  copy.truncate(3);
  prepend(copy, bytes_of(">"));
  EXPECT_EQ(std::string(copy.bytes().begin(), copy.bytes().end()), ">Xri");
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "original");
  PacketBuf assigned;
  assigned = p;
  assigned.pop_front(4);
  EXPECT_EQ(std::string(assigned.bytes().begin(), assigned.bytes().end()),
            "inal");
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "original");
}

TEST(PacketBufTest, RecycledBlockSupportsPushPopTruncate) {
  {
    auto warm = PacketBuf::with_headroom(16, bytes_of("stale bytes here"));
  }  // parks its block
  const auto& stats = sim::BufferPool::instance().stats();
  const std::uint64_t reused = stats.reused;
  auto p = PacketBuf::with_headroom(16, bytes_of("payload"));
  EXPECT_EQ(stats.reused, reused + 1);  // the block was recycled
  EXPECT_EQ(p.headroom(), 16u);
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "payload");
  prepend(p, bytes_of("hdr:"));
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "hdr:payload");
  p.pop_front(4);
  p.truncate(3);
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "pay");
  p.append(bytes_of("+tail"));
  EXPECT_EQ(std::string(p.bytes().begin(), p.bytes().end()), "pay+tail");
}

TEST(BuildUdpFrameTest, ParsesBack) {
  const auto payload = bytes_of("ping");
  const auto frame = build_udp_frame(test_spec(), payload);
  const auto parsed = parse_frame(frame.bytes());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->eth.src, MacAddr::make(1));
  EXPECT_EQ(parsed->eth.dst, MacAddr::make(2));
  EXPECT_EQ(parsed->ip.src, Ipv4Addr::of(10, 0, 0, 1));
  EXPECT_EQ(parsed->ip.dst, Ipv4Addr::of(10, 0, 0, 2));
  ASSERT_TRUE(parsed->udp.has_value());
  EXPECT_EQ(parsed->udp->src_port, 40000);
  EXPECT_EQ(parsed->udp->dst_port, 11211);
  EXPECT_EQ(std::string(parsed->l4_payload.begin(),
                        parsed->l4_payload.end()),
            "ping");
  EXPECT_FALSE(parsed->is_vxlan());
}

TEST(BuildUdpFrameTest, ChecksumsAreValid) {
  const auto payload = bytes_of("check");
  const auto frame = build_udp_frame(test_spec(), payload);
  const auto parsed = parse_frame(frame.bytes());
  ASSERT_TRUE(parsed.has_value());
  const auto datagram = frame.bytes().subspan(
      EthernetHeader::kSize + Ipv4Header::kSize, parsed->udp->length);
  EXPECT_TRUE(UdpHeader::verify_checksum(datagram, parsed->ip.src,
                                         parsed->ip.dst));
}

TEST(BuildTcpFrameTest, ParsesBack) {
  TcpHeader tcp;
  tcp.seq = 1000;
  tcp.ack = 2000;
  tcp.flags = TcpFlags::kAck;
  const auto payload = bytes_of("GET / HTTP/1.1");
  const auto frame = build_tcp_frame(test_spec(), tcp, payload);
  const auto parsed = parse_frame(frame.bytes());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->tcp.has_value());
  EXPECT_EQ(parsed->tcp->seq, 1000u);
  EXPECT_EQ(parsed->tcp->ack, 2000u);
  EXPECT_EQ(parsed->tcp->src_port, 40000);
  EXPECT_EQ(std::string(parsed->l4_payload.begin(),
                        parsed->l4_payload.end()),
            "GET / HTTP/1.1");
}

TEST(VxlanTest, EncapDecapRoundTrip) {
  // Inner container-to-container frame.
  FrameSpec inner_spec = test_spec();
  inner_spec.src_ip = Ipv4Addr::of(172, 17, 0, 2);
  inner_spec.dst_ip = Ipv4Addr::of(172, 17, 0, 3);
  auto frame = build_udp_frame(inner_spec, bytes_of("inner-data"));
  const std::vector<std::uint8_t> inner_copy(frame.bytes().begin(),
                                             frame.bytes().end());

  // Outer host-to-host encapsulation.
  FrameSpec outer = test_spec();
  outer.src_port = 51234;
  vxlan_encapsulate(frame, outer, 0x1234);

  // Outer parse: UDP to port 4789.
  const auto outer_parsed = parse_frame(frame.bytes());
  ASSERT_TRUE(outer_parsed.has_value());
  ASSERT_TRUE(outer_parsed->udp.has_value());
  EXPECT_TRUE(outer_parsed->is_vxlan());
  EXPECT_EQ(outer_parsed->udp->dst_port, kVxlanPort);
  EXPECT_EQ(outer_parsed->ip.dst, Ipv4Addr::of(10, 0, 0, 2));

  // VXLAN header follows the outer UDP header.
  const auto vxlan = VxlanHeader::parse(outer_parsed->l4_payload);
  ASSERT_TRUE(vxlan.has_value());
  EXPECT_EQ(vxlan->vni, 0x1234u);

  // Decapsulate: strip outer eth+ip+udp+vxlan, recover the inner frame.
  frame.pop_front(outer_parsed->l4_payload_offset + VxlanHeader::kSize);
  EXPECT_EQ(std::vector<std::uint8_t>(frame.bytes().begin(),
                                      frame.bytes().end()),
            inner_copy);
  const auto inner_parsed = parse_frame(frame.bytes());
  ASSERT_TRUE(inner_parsed.has_value());
  EXPECT_EQ(inner_parsed->ip.src, Ipv4Addr::of(172, 17, 0, 2));
  EXPECT_EQ(std::string(inner_parsed->l4_payload.begin(),
                        inner_parsed->l4_payload.end()),
            "inner-data");
}

TEST(VxlanTest, EncapUsesHeadroomWithoutCopy) {
  auto frame = build_udp_frame(test_spec(), bytes_of("p"));
  ASSERT_GE(frame.headroom(), kEncapHeadroom);
  const auto before = frame.size();
  vxlan_encapsulate(frame, test_spec(), 7);
  EXPECT_EQ(frame.size(), before + kEncapHeadroom);
}

TEST(ParseFrameTest, RejectsNonIpv4) {
  std::vector<std::uint8_t> buf(64, 0);
  buf[12] = 0x08;
  buf[13] = 0x06;  // ARP
  EXPECT_FALSE(parse_frame(buf).has_value());
}

TEST(ParseFrameTest, RejectsTruncatedFrames) {
  const auto frame = build_udp_frame(test_spec(), bytes_of("payload"));
  const auto full = frame.bytes();
  // Any truncation that cuts into the IP header must fail cleanly.
  for (std::size_t len : {0u, 10u, 20u, 30u}) {
    EXPECT_FALSE(parse_frame(full.first(len)).has_value()) << len;
  }
}

}  // namespace
}  // namespace prism::net
