#include "net/packet.h"

#include <cstring>
#include <stdexcept>

namespace prism::net {

namespace {

/// A pooled block holding `data` behind `headroom` free bytes, with at
/// least `tailroom` free bytes after it.
sim::FrameBlock* block_with(std::size_t headroom,
                            std::span<const std::uint8_t> data,
                            std::size_t tailroom) {
  sim::FrameBlock* block =
      sim::BufferPool::instance().acquire(headroom + data.size() + tailroom);
  block->begin = static_cast<std::uint32_t>(headroom);
  block->end = static_cast<std::uint32_t>(headroom + data.size());
  if (!data.empty()) {
    std::memcpy(block->bytes() + headroom, data.data(), data.size());
  }
  return block;
}

}  // namespace

PacketBuf::PacketBuf(const PacketBuf& other)
    : block_(other.block_ == nullptr
                 ? nullptr
                 : block_with(other.headroom(), other.bytes(), 0)) {}

PacketBuf& PacketBuf::operator=(const PacketBuf& other) {
  if (this != &other) *this = PacketBuf(other);
  return *this;
}

void PacketBuf::release_block() noexcept {
  sim::BufferPool::instance().release(block_);
  block_ = nullptr;
}

PacketBuf PacketBuf::with_headroom(std::size_t headroom,
                                   std::span<const std::uint8_t> payload,
                                   std::size_t tailroom) {
  PacketBuf p;
  p.block_ = block_with(headroom, payload, tailroom);
  return p;
}

void PacketBuf::grow_headroom(std::size_t n) {
  // Room for this push plus a double encapsulation reserve, so stacking
  // further layers onto the same frame never pays for a second move.
  sim::FrameBlock* grown = block_with(2 * kEncapHeadroom + n, bytes(), 0);
  drop();
  block_ = grown;
}

void PacketBuf::pop_front(std::size_t n) {
  if (n > size()) {
    throw std::out_of_range("PacketBuf::pop_front: beyond packet end");
  }
  if (block_ != nullptr) block_->begin += static_cast<std::uint32_t>(n);
}

void PacketBuf::append(std::span<const std::uint8_t> tail) {
  if (block_ == nullptr || block_->capacity - block_->end < tail.size()) {
    sim::FrameBlock* grown = block_with(headroom(), bytes(), tail.size());
    drop();
    block_ = grown;
  }
  if (!tail.empty()) {
    std::memcpy(block_->bytes() + block_->end, tail.data(), tail.size());
  }
  block_->end += static_cast<std::uint32_t>(tail.size());
}

namespace {

constexpr std::size_t kL3At = EthernetHeader::kSize;
constexpr std::size_t kL4At = kL3At + Ipv4Header::kSize;

/// Writes the Ethernet and IPv4 headers of a frame from `spec` that
/// carries `l4_length` bytes of `proto` into the front of `out`.
void write_eth_ipv4(std::span<std::uint8_t> out, const FrameSpec& spec,
                    IpProto proto, std::size_t l4_length) {
  EthernetHeader{spec.dst_mac, spec.src_mac, EtherType::kIpv4}.write(
      out.first<EthernetHeader::kSize>());
  Ipv4Header ip;
  ip.dscp = spec.dscp;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kSize + l4_length);
  ip.protocol = proto;
  ip.src = spec.src_ip;
  ip.dst = spec.dst_ip;
  ip.write(out.subspan<kL3At, Ipv4Header::kSize>());
}

}  // namespace

PacketBuf build_udp_frame(const FrameSpec& spec,
                          std::span<const std::uint8_t> payload) {
  PacketBuf p = PacketBuf::from_payload(payload);
  const auto hdr = p.push_front(kL4At + UdpHeader::kSize);
  const std::size_t l4_length = UdpHeader::kSize + payload.size();
  write_eth_ipv4(hdr, spec, IpProto::kUdp, l4_length);
  UdpHeader{spec.src_port, spec.dst_port,
            static_cast<std::uint16_t>(l4_length)}
      .write(hdr.subspan<kL4At, UdpHeader::kSize>(), spec.src_ip,
             spec.dst_ip, payload);
  return p;
}

PacketBuf build_tcp_frame(const FrameSpec& spec, const TcpHeader& tcp,
                          std::span<const std::uint8_t> payload) {
  PacketBuf p = PacketBuf::from_payload(payload);
  const auto hdr = p.push_front(kL4At + TcpHeader::kSize);
  write_eth_ipv4(hdr, spec, IpProto::kTcp, TcpHeader::kSize + payload.size());
  TcpHeader t = tcp;
  t.src_port = spec.src_port;
  t.dst_port = spec.dst_port;
  t.write(hdr.subspan<kL4At, TcpHeader::kSize>(), spec.src_ip, spec.dst_ip,
          payload);
  return p;
}

void vxlan_encapsulate(PacketBuf& frame, const FrameSpec& outer,
                       std::uint32_t vni) {
  constexpr std::size_t kVxlanAt = kL4At + UdpHeader::kSize;
  const std::size_t l4_length =
      UdpHeader::kSize + VxlanHeader::kSize + frame.size();
  const auto hdr = frame.push_front(kEncapHeadroom);
  write_eth_ipv4(hdr, outer, IpProto::kUdp, l4_length);
  // RFC 7348: the outer UDP checksum SHOULD be zero — receivers must not
  // verify it. Skipping it avoids checksumming the whole inner frame again.
  UdpHeader{outer.src_port, kVxlanPort, static_cast<std::uint16_t>(l4_length)}
      .write_no_checksum(hdr.subspan<kL4At, UdpHeader::kSize>());
  VxlanHeader{vni}.write(hdr.subspan<kVxlanAt, VxlanHeader::kSize>());
}

bool parse_frame_into(std::span<const std::uint8_t> frame,
                      ParsedFrame& out) noexcept {
  out.udp.reset();
  out.tcp.reset();
  out.l4_payload = {};
  out.l4_payload_offset = 0;

  auto eth = EthernetHeader::parse(frame);
  if (!eth) return false;
  out.eth = *eth;
  if (eth->ether_type != EtherType::kIpv4) return false;

  auto ip_bytes = frame.subspan(EthernetHeader::kSize);
  auto ip = Ipv4Header::parse(ip_bytes);
  if (!ip) return false;
  out.ip = *ip;

  // Trust total_length over the buffer size (buffers may carry padding).
  auto l4 = ip_bytes.subspan(Ipv4Header::kSize,
                             ip->total_length - Ipv4Header::kSize);
  const std::size_t l4_offset = EthernetHeader::kSize + Ipv4Header::kSize;

  if (ip->protocol == IpProto::kUdp) {
    auto udp = UdpHeader::parse(l4);
    if (!udp) return false;
    out.udp = *udp;
    out.l4_payload = l4.subspan(UdpHeader::kSize,
                                udp->length - UdpHeader::kSize);
    out.l4_payload_offset = l4_offset + UdpHeader::kSize;
  } else if (ip->protocol == IpProto::kTcp) {
    auto tcp = TcpHeader::parse(l4);
    if (!tcp) return false;
    out.tcp = *tcp;
    out.l4_payload = l4.subspan(TcpHeader::kSize);
    out.l4_payload_offset = l4_offset + TcpHeader::kSize;
  }
  return true;
}

std::optional<ParsedFrame> parse_frame(
    std::span<const std::uint8_t> frame) {
  std::optional<ParsedFrame> out(std::in_place);
  if (!parse_frame_into(frame, *out)) out.reset();
  return out;
}

}  // namespace prism::net
