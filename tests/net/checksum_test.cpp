#include "net/checksum.h"

#include <gtest/gtest.h>

#include <vector>

namespace prism::net {
namespace {

TEST(ChecksumTest, Rfc1071Example) {
  // Classic example from RFC 1071 §3: data 00 01 f2 03 f4 f5 f6 f7.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03,
                               0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0x00 01 + 0xf2 03 + 0xf4 f5 + 0xf6 f7 = 0x2ddf0 -> 0xddf2,
  // complement = 0x220d.
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(ChecksumTest, EmbeddedChecksumVerifiesToZero) {
  std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34,
                                    0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
                                    0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00,
                                    0x00, 0x02};
  const auto csum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(csum >> 8);
  data[11] = static_cast<std::uint8_t>(csum);
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(ChecksumTest, OddLengthHandled) {
  const std::uint8_t data[] = {0xab, 0xcd, 0xef};
  // 0xabcd + 0xef00 = 0x19acd -> 0x9ace, complement 0x6531.
  EXPECT_EQ(internet_checksum(data), 0x6531);
}

TEST(ChecksumTest, AccumulatorMatchesOneShot) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 100; ++i) {
    data.push_back(static_cast<std::uint8_t>(i * 7));
  }
  ChecksumAccumulator acc;
  acc.add(std::span(data).first(33));  // odd split
  acc.add(std::span(data).subspan(33));
  EXPECT_EQ(acc.finish(), internet_checksum(data));
}

TEST(ChecksumTest, AddU16U32MatchBytes) {
  ChecksumAccumulator a, b;
  a.add_u32(0x01020304);
  a.add_u16(0x0506);
  const std::uint8_t bytes[] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  b.add(bytes);
  EXPECT_EQ(a.finish(), b.finish());
}

// RFC 1071 word by word: the reference the wide loops must match bit for
// bit, at every length, alignment and split of the input.
std::uint16_t word_by_word(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < data.size(); i += 2) {
    sum += static_cast<std::uint64_t>(data[i]) << 8;
    if (i + 1 < data.size()) sum += data[i + 1];
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

TEST(ChecksumTest, WideLoopsMatchTheWordByWordSum) {
  std::vector<std::uint8_t> data(300);
  std::uint32_t x = 12345;
  for (auto& b : data) {
    x = x * 1103515245u + 12345u;
    b = static_cast<std::uint8_t>(x >> 16);
  }
  const std::span<const std::uint8_t> all(data);
  for (std::size_t start = 0; start < 4; ++start) {
    for (std::size_t len = 0; start + len <= data.size(); ++len) {
      const auto bytes = all.subspan(start, len);
      ASSERT_EQ(internet_checksum(bytes), word_by_word(bytes))
          << "start " << start << " len " << len;
      ChecksumAccumulator acc;
      acc.add(bytes.first(len / 3));
      acc.add(bytes.subspan(len / 3));
      ASSERT_EQ(acc.finish(), word_by_word(bytes))
          << "split, start " << start << " len " << len;
    }
  }
  // All-ones words: the sum carries in every lane.
  const std::vector<std::uint8_t> ones(1500, 0xff);
  EXPECT_EQ(internet_checksum(ones), word_by_word(ones));
}

TEST(ChecksumTest, SingleBitCorruptionDetected) {
  std::vector<std::uint8_t> data(40, 0x5a);
  const auto good = internet_checksum(data);
  data[17] ^= 0x04;
  EXPECT_NE(internet_checksum(data), good);
}

}  // namespace
}  // namespace prism::net
