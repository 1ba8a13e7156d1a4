#include "apps/payload.h"

#include <gtest/gtest.h>

namespace prism::apps {
namespace {

std::vector<std::uint8_t> probe_bytes(const Probe& p, std::size_t size) {
  std::vector<std::uint8_t> out(size);
  encode_probe_into(p, out);
  return out;
}

std::vector<std::uint8_t> to_vector(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

TEST(ProbeTest, RoundTrip) {
  Probe p{0x123456789abcdef0ULL, 987654321, true};
  const auto bytes = probe_bytes(p, 64);
  const auto decoded = decode_probe(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, p.seq);
  EXPECT_EQ(decoded->sent_at, p.sent_at);
  EXPECT_TRUE(decoded->reply);
}

TEST(ProbeTest, NoReplyFlag) {
  const auto bytes = probe_bytes(Probe{1, 2, false}, kProbeSize);
  EXPECT_FALSE(decode_probe(bytes)->reply);
}

TEST(ProbeTest, TooSmallPayloadRejected) {
  EXPECT_THROW(probe_bytes(Probe{}, kProbeSize - 1),
               std::invalid_argument);
}

TEST(ProbeTest, RewriteLeavesThePaddingAlone) {
  std::vector<std::uint8_t> payload(64, 0xee);
  encode_probe_into(Probe{5, 6, true}, payload);
  encode_probe_into(Probe{7, 8, false}, payload);
  const auto decoded = decode_probe(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 7u);
  EXPECT_EQ(decoded->sent_at, 8);
  EXPECT_FALSE(decoded->reply);
  for (std::size_t i = 17; i < kProbeSize; ++i) EXPECT_EQ(payload[i], 0u);
  for (std::size_t i = kProbeSize; i < payload.size(); ++i) {
    EXPECT_EQ(payload[i], 0xee) << i;
  }
}

TEST(ProbeTest, ShortBufferDecodesToNull) {
  std::vector<std::uint8_t> short_buf(kProbeSize - 1, 0);
  EXPECT_FALSE(decode_probe(short_buf).has_value());
}

TEST(FramerTest, SingleMessageRoundTrip) {
  MessageFramer framer;
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  framer.push(MessageFramer::frame(body));
  const auto msg = framer.next();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_vector(*msg), body);
  EXPECT_FALSE(framer.next().has_value());
}

TEST(FramerTest, HandlesFragmentedDelivery) {
  MessageFramer framer;
  const std::vector<std::uint8_t> body(1000, 0x7a);
  const auto framed = MessageFramer::frame(body);
  // Feed one byte at a time.
  for (std::size_t i = 0; i < framed.size(); ++i) {
    framer.push(std::span(&framed[i], 1));
    if (i + 1 < framed.size()) {
      EXPECT_FALSE(framer.next().has_value());
    }
  }
  const auto msg = framer.next();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(to_vector(*msg), body);
}

TEST(FramerTest, HandlesCoalescedMessages) {
  MessageFramer framer;
  std::vector<std::uint8_t> stream;
  for (int i = 1; i <= 3; ++i) {
    const std::vector<std::uint8_t> body(static_cast<std::size_t>(i * 10),
                                         static_cast<std::uint8_t>(i));
    const auto framed = MessageFramer::frame(body);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  framer.push(stream);
  for (int i = 1; i <= 3; ++i) {
    const auto msg = framer.next();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->size(), static_cast<std::size_t>(i * 10));
  }
  EXPECT_FALSE(framer.next().has_value());
}

TEST(FramerTest, WarmFramerKeepsItsBuffer) {
  MessageFramer framer;
  const std::vector<std::uint8_t> body(100, 0x42);
  const auto framed = MessageFramer::frame(body);
  // Half a message stays behind each round, so the consumed prefix is
  // cut off while bytes remain.
  framer.push(std::span(framed).first(50));
  const std::uint8_t* data = nullptr;
  for (int round = 0; round < 100; ++round) {
    framer.push(std::span(framed).subspan(50));
    framer.push(std::span(framed).first(50));
    const auto msg = framer.next();
    ASSERT_TRUE(msg.has_value()) << round;
    EXPECT_EQ(to_vector(*msg), body);
    EXPECT_FALSE(framer.next().has_value());
    if (round == 10) data = msg->data();
    if (round > 10) {
      EXPECT_EQ(msg->data(), data) << round;
    }
  }
}

TEST(FramerTest, EmptyMessageSupported) {
  MessageFramer framer;
  framer.push(MessageFramer::frame({}));
  const auto msg = framer.next();
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->empty());
}

}  // namespace
}  // namespace prism::apps
