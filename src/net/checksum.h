// RFC 1071 Internet checksum.
//
// Header codecs fill and verify real checksums so that corrupted or
// mis-encoded packets are caught by the simulated protocol stack exactly as
// they would be by a real one.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace prism::net {

/// Incremental accumulator, used for pseudo-header + payload sums (UDP/TCP).
/// Fully inline: the checksum runs several times per simulated packet.
class ChecksumAccumulator {
 public:
  void add(std::span<const std::uint8_t> data) noexcept {
    std::size_t i = 0;
    if (odd_ && !data.empty()) {
      // Complete the pending odd byte: it was the high octet of a 16-bit
      // word, this byte is the low octet.
      sum_ += data[0];
      odd_ = false;
      i = 1;
    }
    if constexpr (std::endian::native == std::endian::little) {
      // Fast path: sum native little-endian 32-bit words into 64-bit
      // accumulators. The one's-complement sum is endian-agnostic up to a
      // final byte swap, so the folded partial sum is swapped once into
      // the big-endian word arithmetic the RFC uses. Two independent
      // accumulators break the add dependency chain.
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
#if defined(__SSE2__)
      // 32 bytes per step: each 32-bit word is widened into a 64-bit
      // lane, so the lanes sum exactly the words the scalar loop below
      // would, and the result is bit-identical to it.
      __m128i acc_lo = _mm_setzero_si128();
      __m128i acc_hi = _mm_setzero_si128();
      const __m128i zero = _mm_setzero_si128();
      for (; i + 32 <= data.size(); i += 32) {
        const __m128i v0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(data.data() + i));
        const __m128i v1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(data.data() + i + 16));
        acc_lo = _mm_add_epi64(acc_lo, _mm_unpacklo_epi32(v0, zero));
        acc_hi = _mm_add_epi64(acc_hi, _mm_unpackhi_epi32(v0, zero));
        acc_lo = _mm_add_epi64(acc_lo, _mm_unpacklo_epi32(v1, zero));
        acc_hi = _mm_add_epi64(acc_hi, _mm_unpackhi_epi32(v1, zero));
      }
      std::uint64_t lanes[2];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes),
                       _mm_add_epi64(acc_lo, acc_hi));
      lo += lanes[0];
      hi += lanes[1];
#endif
      for (; i + 16 <= data.size(); i += 16) {
        std::uint64_t w0;
        std::uint64_t w1;
        std::memcpy(&w0, data.data() + i, 8);
        std::memcpy(&w1, data.data() + i + 8, 8);
        lo += (w0 & 0xffffffffu) + (w0 >> 32);
        hi += (w1 & 0xffffffffu) + (w1 >> 32);
      }
      for (; i + 8 <= data.size(); i += 8) {
        std::uint64_t w;
        std::memcpy(&w, data.data() + i, 8);
        lo += (w & 0xffffffffu) + (w >> 32);
      }
      std::uint64_t local = lo + hi;
      if (local != 0) {
        while (local >> 16) local = (local & 0xffff) + (local >> 16);
        sum_ += ((local & 0xff) << 8) | (local >> 8);
      }
    }
    for (; i + 1 < data.size(); i += 2) {
      sum_ += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
    }
    if (i < data.size()) {
      sum_ += static_cast<std::uint32_t>(data[i]) << 8;
      odd_ = true;
    }
  }

  void add_u16(std::uint16_t value) noexcept {
    if (!odd_) {
      sum_ += value;
    } else {
      // The pending odd byte is the high octet of the current word: this
      // value's high octet completes it, its low octet starts the next.
      sum_ += value >> 8;
      sum_ += static_cast<std::uint32_t>(value & 0xff) << 8;
    }
  }

  void add_u32(std::uint32_t value) noexcept {
    add_u16(static_cast<std::uint16_t>(value >> 16));
    add_u16(static_cast<std::uint16_t>(value));
  }

  /// Finalized (complemented) checksum.
  std::uint16_t finish() const noexcept {
    std::uint64_t s = sum_;
    while (s >> 16) s = (s & 0xffff) + (s >> 16);
    return static_cast<std::uint16_t>(~s);
  }

 private:
  std::uint64_t sum_ = 0;
  bool odd_ = false;  // true when an odd byte is pending
};

/// One's-complement 16-bit Internet checksum over `data`. Returns the value
/// to store in a header checksum field (i.e. already complemented).
/// Verifying: checksum over a buffer with a correct embedded checksum
/// yields 0.
inline std::uint16_t internet_checksum(
    std::span<const std::uint8_t> data) noexcept {
  ChecksumAccumulator acc;
  acc.add(data);
  return acc.finish();
}

}  // namespace prism::net
