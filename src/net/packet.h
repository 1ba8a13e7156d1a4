// Packet buffers and frame assembly.
//
// A PacketBuf is a handle to a contiguous pooled byte block with reserved
// headroom, mirroring the kernel's sk_buff data area: encapsulation
// writes headers straight into the headroom without copying the payload;
// decapsulation strips them by advancing the data offset.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "net/headers.h"
#include "sim/pool.h"

namespace prism::net {

/// Standard Ethernet MTU used throughout the simulator.
constexpr std::size_t kMtu = 1500;

/// Headroom reserved for one level of VXLAN encapsulation
/// (Ethernet + IPv4 + UDP + VXLAN).
constexpr std::size_t kEncapHeadroom = EthernetHeader::kSize +
                                       Ipv4Header::kSize + UdpHeader::kSize +
                                       VxlanHeader::kSize;

/// Handle to one pooled frame block, the payload carrier of every
/// simulated packet.
///
/// A PacketBuf is one pointer to a sim::FrameBlock from sim::BufferPool.
/// The block travels, never copied, from the sender's frame build through
/// the wire, the NIC ring and the skb into the socket's datagram; a move
/// steals the pointer, and the handle that still holds the block when it
/// dies returns it to the pool. Copies are deep (the fault injector's
/// duplicated frame is a second block).
class PacketBuf {
 public:
  PacketBuf() noexcept = default;

  PacketBuf(PacketBuf&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  PacketBuf& operator=(PacketBuf&& other) noexcept {
    if (this != &other) {
      drop();
      block_ = std::exchange(other.block_, nullptr);
    }
    return *this;
  }

  PacketBuf(const PacketBuf& other);
  PacketBuf& operator=(const PacketBuf& other);

  ~PacketBuf() { drop(); }

  /// Creates a buffer holding `payload` with `headroom` free bytes in
  /// front and at least `tailroom` free bytes behind.
  static PacketBuf with_headroom(std::size_t headroom,
                                 std::span<const std::uint8_t> payload,
                                 std::size_t tailroom = 0);

  /// Creates a buffer holding `payload` with enough headroom for the
  /// packet's own L2-L4 headers plus one level of VXLAN encapsulation.
  static PacketBuf from_payload(std::span<const std::uint8_t> payload) {
    // 64 covers Ethernet + IPv4 + TCP (54) with slack.
    return with_headroom(kEncapHeadroom + 64, payload);
  }

  /// Current packet bytes (post-headroom). Empty when no block is held.
  std::span<const std::uint8_t> bytes() const noexcept {
    if (block_ == nullptr) return {};
    return {block_->bytes() + block_->begin, block_->end - block_->begin};
  }

  /// Mutable view of the packet bytes, for in-place rewriting (fault
  /// injection bit-flips). Does not change the packet's length.
  std::span<std::uint8_t> mutable_bytes() noexcept {
    if (block_ == nullptr) return {};
    return {block_->bytes() + block_->begin, block_->end - block_->begin};
  }

  /// Truncates the packet to its first `n` bytes (tail cut, as a link that
  /// clipped the frame would). No-op when n >= size().
  void truncate(std::size_t n) noexcept {
    if (n < size()) block_->end = block_->begin + static_cast<std::uint32_t>(n);
  }

  std::size_t size() const noexcept {
    return block_ == nullptr ? 0 : block_->end - block_->begin;
  }
  bool empty() const noexcept { return size() == 0; }

  /// Prepends `n` bytes to the packet and returns them for the caller to
  /// write (skb_push): their contents are unspecified until then. Uses
  /// headroom when available, otherwise first moves to a larger block
  /// (with fresh headroom).
  std::span<std::uint8_t> push_front(std::size_t n) {
    if (block_ == nullptr || n > block_->begin) grow_headroom(n);
    block_->begin -= static_cast<std::uint32_t>(n);
    return {block_->bytes() + block_->begin, n};
  }

  /// Strips `n` bytes from the front (e.g. decapsulation). Throws
  /// std::out_of_range if n > size().
  void pop_front(std::size_t n);

  /// Appends `tail` behind the packet bytes. Uses tailroom when
  /// available, otherwise moves to a larger block.
  void append(std::span<const std::uint8_t> tail);

  /// Remaining headroom in bytes.
  std::size_t headroom() const noexcept {
    return block_ == nullptr ? 0 : block_->begin;
  }

 private:
  /// Returns the block, if any, to sim::BufferPool and leaves the buffer
  /// empty.
  void drop() noexcept {
    if (block_ != nullptr) release_block();
  }
  void release_block() noexcept;
  /// Moves the bytes to a block with room for `n` more in front.
  void grow_headroom(std::size_t n);

  sim::FrameBlock* block_ = nullptr;
};

static_assert(sizeof(PacketBuf) == sizeof(void*),
              "a PacketBuf is one pointer to its frame block");

/// Addressing for an L2+L3+L4 frame build.
struct FrameSpec {
  MacAddr src_mac;
  MacAddr dst_mac;
  Ipv4Addr src_ip;
  Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t dscp = 0;
};

/// Builds a complete Ethernet/IPv4/UDP frame around `payload`.
PacketBuf build_udp_frame(const FrameSpec& spec,
                          std::span<const std::uint8_t> payload);

/// Builds a complete Ethernet/IPv4/TCP frame. `tcp` supplies seq/ack/flags;
/// ports are taken from `spec`.
PacketBuf build_tcp_frame(const FrameSpec& spec, const TcpHeader& tcp,
                          std::span<const std::uint8_t> payload);

/// Wraps an existing inner Ethernet frame in VXLAN (outer Ethernet + IPv4 +
/// UDP[4789] + VXLAN), written in place into kEncapHeadroom bytes of the
/// buffer's headroom.
void vxlan_encapsulate(PacketBuf& frame, const FrameSpec& outer,
                       std::uint32_t vni);

/// Result of parsing a frame down to L4. Spans reference the buffer passed
/// to parse_frame and are invalidated with it.
struct ParsedFrame {
  EthernetHeader eth;
  Ipv4Header ip;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  /// L4 payload (UDP payload / TCP payload). Empty for other protocols.
  std::span<const std::uint8_t> l4_payload;
  /// Offset of the L4 payload from the start of the frame.
  std::size_t l4_payload_offset = 0;

  bool is_vxlan() const noexcept {
    return udp.has_value() && udp->dst_port == kVxlanPort;
  }
};

/// Parses Ethernet/IPv4/{UDP,TCP}. Returns nullopt on malformed input
/// (short buffers, bad IP checksum, unknown EtherType).
std::optional<ParsedFrame> parse_frame(std::span<const std::uint8_t> frame);

/// As parse_frame, but fills a caller-owned ParsedFrame — the hot-path
/// form, avoiding the optional<ParsedFrame> copy per packet. Returns
/// false on malformed input; `out` is clobbered either way.
bool parse_frame_into(std::span<const std::uint8_t> frame,
                      ParsedFrame& out) noexcept;

}  // namespace prism::net
