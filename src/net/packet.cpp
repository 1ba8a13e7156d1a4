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

void PacketBuf::push_front(std::span<const std::uint8_t> header) {
  if (block_ == nullptr || header.size() > block_->begin) {
    // Not enough headroom: move to a block with room for this header plus
    // a double encapsulation reserve, so stacking further layers onto the
    // same frame never pays for a second move.
    sim::FrameBlock* grown =
        block_with(2 * kEncapHeadroom + header.size(), bytes(), 0);
    drop();
    block_ = grown;
  }
  block_->begin -= static_cast<std::uint32_t>(header.size());
  if (!header.empty()) {
    std::memcpy(block_->bytes() + block_->begin, header.data(),
                header.size());
  }
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

// Scratch vector for header serialization, recycled across frame builds
// so the steady state allocates nothing. Frame builders use it strictly
// sequentially (serialize, push_front, done) and never reenter.
std::vector<std::uint8_t>& header_scratch() {
  static thread_local std::vector<std::uint8_t> scratch;
  scratch.clear();
  return scratch;
}

// Serializes eth+ip+udp headers covering `payload` into `hdr`.
void build_headers_udp(const FrameSpec& spec,
                       std::span<const std::uint8_t> payload,
                       std::vector<std::uint8_t>& hdr) {
  EthernetHeader eth{spec.dst_mac, spec.src_mac, EtherType::kIpv4};
  eth.serialize(hdr);

  Ipv4Header ip;
  ip.dscp = spec.dscp;
  ip.protocol = IpProto::kUdp;
  ip.src = spec.src_ip;
  ip.dst = spec.dst_ip;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + UdpHeader::kSize + payload.size());
  ip.serialize(hdr);

  UdpHeader udp;
  udp.src_port = spec.src_port;
  udp.dst_port = spec.dst_port;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload.size());
  udp.serialize(hdr, spec.src_ip, spec.dst_ip, payload);
}

}  // namespace

PacketBuf build_udp_frame(const FrameSpec& spec,
                          std::span<const std::uint8_t> payload) {
  PacketBuf p = PacketBuf::from_payload(payload);
  auto& hdr = header_scratch();
  build_headers_udp(spec, payload, hdr);
  p.push_front(hdr);
  return p;
}

PacketBuf build_tcp_frame(const FrameSpec& spec, const TcpHeader& tcp,
                          std::span<const std::uint8_t> payload) {
  auto& hdr = header_scratch();

  EthernetHeader eth{spec.dst_mac, spec.src_mac, EtherType::kIpv4};
  eth.serialize(hdr);

  Ipv4Header ip;
  ip.dscp = spec.dscp;
  ip.protocol = IpProto::kTcp;
  ip.src = spec.src_ip;
  ip.dst = spec.dst_ip;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + TcpHeader::kSize + payload.size());
  ip.serialize(hdr);

  TcpHeader t = tcp;
  t.src_port = spec.src_port;
  t.dst_port = spec.dst_port;
  t.serialize(hdr, spec.src_ip, spec.dst_ip, payload);

  PacketBuf p = PacketBuf::from_payload(payload);
  p.push_front(hdr);
  return p;
}

void vxlan_encapsulate(PacketBuf& frame, const FrameSpec& outer,
                       std::uint32_t vni) {
  // VXLAN payload = VXLAN header + inner frame; build the VXLAN header
  // first so the UDP checksum can cover it together with the inner frame.
  // The scratch is reused for both pushes — each push copies it into the
  // frame before the next serialization clears it.
  auto& scratch = header_scratch();
  VxlanHeader{vni}.serialize(scratch);
  frame.push_front(scratch);

  auto& hdr = header_scratch();

  EthernetHeader eth{outer.dst_mac, outer.src_mac, EtherType::kIpv4};
  eth.serialize(hdr);

  Ipv4Header ip;
  ip.dscp = outer.dscp;
  ip.protocol = IpProto::kUdp;
  ip.src = outer.src_ip;
  ip.dst = outer.dst_ip;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + UdpHeader::kSize + frame.size());
  ip.serialize(hdr);

  // RFC 7348: the outer UDP checksum SHOULD be zero — receivers must not
  // verify it. Skipping it avoids checksumming the whole inner frame again.
  UdpHeader udp;
  udp.src_port = outer.src_port;
  udp.dst_port = kVxlanPort;
  udp.length =
      static_cast<std::uint16_t>(UdpHeader::kSize + frame.size());
  udp.serialize_no_checksum(hdr);

  frame.push_front(hdr);
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
