// Receive-side validation: corrupted, truncated and malformed frames are
// rejected on ingress — IPv4 header checksum and length checks at the
// driver parse, L4 checksum verification at socket delivery — and every
// rejection is counted. These paths are active regardless of whether the
// fault-injection hooks are compiled in: validation is stack behaviour,
// injection is just one way to exercise it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault.h"
#include "harness/testbed.h"
#include "net/headers.h"
#include "net/packet.h"

namespace prism {
namespace {

using fault::DropReason;
using harness::Testbed;

constexpr std::size_t kIpOffset = net::EthernetHeader::kSize;
constexpr std::size_t kUdpOffset = kIpOffset + net::Ipv4Header::kSize;
constexpr std::size_t kPayloadOffset = kUdpOffset + net::UdpHeader::kSize;

/// A well-formed host-path UDP frame addressed to the testbed server.
net::PacketBuf frame_to_server(Testbed& tb, std::uint16_t dst_port,
                               std::size_t payload_size = 32) {
  net::FrameSpec spec;
  spec.src_mac = tb.client().mac();
  spec.dst_mac = tb.server().mac();
  spec.src_ip = tb.client().ip();
  spec.dst_ip = tb.server().ip();
  spec.src_port = 5555;
  spec.dst_port = dst_port;
  std::vector<std::uint8_t> payload(payload_size, 0x7e);
  return net::build_udp_frame(spec, payload);
}

void inject(Testbed& tb, net::PacketBuf frame) {
  tb.server_sim().schedule_at(1'000, [&tb, f = std::move(frame)]() mutable {
    tb.server().nic().receive(std::move(f));
  });
  tb.run_until(sim::seconds(1));
}

TEST(RxValidationTest, CleanFrameDelivers) {
  Testbed tb;
  auto& sock = tb.server().udp_bind(tb.server().root_ns(), 9000);
  inject(tb, frame_to_server(tb, 9000));
  EXPECT_EQ(sock.received(), 1u);
  EXPECT_EQ(tb.server().deliverer().csum_drops(), 0u);
  EXPECT_EQ(tb.server().faults().drops.total_drops(), 0u);
}

TEST(RxValidationTest, PayloadBitFlipRejectedByUdpChecksum) {
  Testbed tb;
  auto& sock = tb.server().udp_bind(tb.server().root_ns(), 9000);
  auto frame = frame_to_server(tb, 9000);
  frame.mutable_bytes()[kPayloadOffset + 5] ^= 0x40;
  inject(tb, std::move(frame));
  EXPECT_EQ(sock.received(), 0u);
  EXPECT_EQ(tb.server().deliverer().csum_drops(), 1u);
  EXPECT_EQ(tb.server().faults().drops.total(DropReason::kChecksum), 1u);
}

TEST(RxValidationTest, ZeroUdpChecksumMeansUncomputedAndIsAccepted) {
  // RFC 768: an all-zero transmitted checksum means the sender did not
  // compute one; RFC 7348 relies on this for VXLAN outer headers.
  Testbed tb;
  auto& sock = tb.server().udp_bind(tb.server().root_ns(), 9000);
  auto frame = frame_to_server(tb, 9000);
  frame.mutable_bytes()[kUdpOffset + 6] = 0;
  frame.mutable_bytes()[kUdpOffset + 7] = 0;
  inject(tb, std::move(frame));
  EXPECT_EQ(sock.received(), 1u);
  EXPECT_EQ(tb.server().deliverer().csum_drops(), 0u);
}

TEST(RxValidationTest, IpHeaderBitFlipRejectedAtParse) {
  Testbed tb;
  auto& sock = tb.server().udp_bind(tb.server().root_ns(), 9000);
  auto frame = frame_to_server(tb, 9000);
  frame.mutable_bytes()[kIpOffset + 8] ^= 0x01;  // TTL
  inject(tb, std::move(frame));
  EXPECT_EQ(sock.received(), 0u);
  EXPECT_EQ(tb.server().nic_napi(0).dropped_malformed(), 1u);
  EXPECT_EQ(tb.server().faults().drops.total(DropReason::kMalformed), 1u);
}

TEST(RxValidationTest, TruncatedFrameRejectedAtParse) {
  Testbed tb;
  auto& sock = tb.server().udp_bind(tb.server().root_ns(), 9000);
  auto frame = frame_to_server(tb, 9000);
  frame.truncate(kUdpOffset + 3);  // cut mid-UDP-header
  inject(tb, std::move(frame));
  EXPECT_EQ(sock.received(), 0u);
  EXPECT_EQ(tb.server().nic_napi(0).dropped_malformed(), 1u);
  EXPECT_EQ(tb.server().faults().drops.total(DropReason::kMalformed), 1u);
}

TEST(RxValidationTest, UdpLengthBeyondBufferRejectedAtParse) {
  Testbed tb;
  auto& sock = tb.server().udp_bind(tb.server().root_ns(), 9000);
  auto frame = frame_to_server(tb, 9000);
  // Claim a UDP length far beyond the buffer; the length check must trip
  // before anyone walks off the end of the payload.
  frame.mutable_bytes()[kUdpOffset + 4] = 0x7f;
  frame.mutable_bytes()[kUdpOffset + 5] = 0xff;
  inject(tb, std::move(frame));
  EXPECT_EQ(sock.received(), 0u);
  EXPECT_EQ(tb.server().nic_napi(0).dropped_malformed(), 1u);
}

TEST(RxValidationTest, TcpPayloadBitFlipRejectedByTcpChecksum) {
  Testbed tb;
  net::FrameSpec spec;
  spec.src_mac = tb.client().mac();
  spec.dst_mac = tb.server().mac();
  spec.src_ip = tb.client().ip();
  spec.dst_ip = tb.server().ip();
  spec.src_port = 40000;
  spec.dst_port = 5001;
  net::TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 5001;
  tcp.seq = 1;
  tcp.flags = net::TcpFlags::kAck | net::TcpFlags::kPsh;
  std::vector<std::uint8_t> payload(16, 0x33);
  auto frame = net::build_tcp_frame(spec, tcp, payload);
  constexpr std::size_t kTcpPayloadOffset =
      kIpOffset + net::Ipv4Header::kSize + net::TcpHeader::kSize;
  frame.mutable_bytes()[kTcpPayloadOffset + 2] ^= 0x08;
  inject(tb, std::move(frame));
  EXPECT_EQ(tb.server().deliverer().csum_drops(), 1u);
  EXPECT_EQ(tb.server().faults().drops.total(DropReason::kChecksum), 1u);
}

TEST(RxValidationTest, CorruptedInnerVxlanFrameRejectedPerClass) {
  // Overlay path: a bit flipped in the *inner* L4 payload after VXLAN
  // decap is caught by the inner UDP checksum at socket delivery, and the
  // drop lands in the packet's true priority class because the headers
  // (hence classification) were untouched.
  harness::TestbedConfig cfg;
  cfg.mode = kernel::NapiMode::kPrismBatch;
  cfg.server_faults.seed = 5;
  cfg.server_faults.decap_corrupt_rate = 1.0;
  Testbed tb(cfg);
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  auto& sock = tb.server().udp_bind(c2, 7000);
  tb.server().priority_db().add(c2.ip(), 7000, 2);
  tb.client().udp_send(c1, tb.client().cpu(1), 4444, c2.ip(), 7000,
                       std::vector<std::uint8_t>(64, 0x44));
  tb.run_until(sim::seconds(1));
  EXPECT_EQ(sock.received(), 0u);
  EXPECT_EQ(tb.server().faults().drops.count(DropReason::kChecksum, 2),
            1u);
  EXPECT_EQ(tb.server().faults().plan.counters().decap_corrupts, 1u);
}

}  // namespace
}  // namespace prism
