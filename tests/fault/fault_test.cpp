// Fault-injection subsystem: DropLedger and FaultPlan units, plus
// end-to-end conservation — every injected frame is either delivered or
// attributed to a drop reason, per priority class, and pool storage
// returns to baseline afterwards (no leak hides behind a drop path).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness/testbed.h"
#include "kernel/skb_pool.h"
#include "net/headers.h"
#include "net/packet.h"
#include "sim/pool.h"

namespace prism {
namespace {

using fault::DropLedger;
using fault::DropReason;
using fault::FaultConfig;
using fault::FaultPlan;
using harness::Testbed;
using harness::TestbedConfig;

net::PacketBuf make_frame(std::size_t payload_size = 64) {
  net::FrameSpec spec;
  spec.src_mac = net::MacAddr::make(0x101);
  spec.dst_mac = net::MacAddr::make(0x202);
  spec.src_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  spec.dst_ip = net::Ipv4Addr::of(10, 0, 0, 2);
  spec.src_port = 1111;
  spec.dst_port = 2222;
  std::vector<std::uint8_t> payload(payload_size, 0x5a);
  return net::build_udp_frame(spec, payload);
}

// ------------------------------------------------------------ DropLedger

TEST(DropLedgerTest, CountsPerReasonAndClass) {
  DropLedger ledger;
  ledger.record(DropReason::kRingFull, 1);
  ledger.record(DropReason::kRingFull, 1);
  ledger.record(DropReason::kChecksum, 3);
  EXPECT_EQ(ledger.count(DropReason::kRingFull, 1), 2u);
  EXPECT_EQ(ledger.count(DropReason::kRingFull, 0), 0u);
  EXPECT_EQ(ledger.count(DropReason::kChecksum, 3), 1u);
  EXPECT_EQ(ledger.total(DropReason::kRingFull), 2u);
  EXPECT_EQ(ledger.class_total(1), 2u);
  EXPECT_EQ(ledger.class_total(3), 1u);
  EXPECT_EQ(ledger.total_drops(), 3u);
  ledger.reset();
  EXPECT_EQ(ledger.total_drops(), 0u);
}

TEST(DropLedgerTest, OutOfRangeClassesClamp) {
  DropLedger ledger;
  ledger.record(DropReason::kWire, -5);
  ledger.record(DropReason::kWire, 99);
  EXPECT_EQ(ledger.count(DropReason::kWire, 0), 1u);
  EXPECT_EQ(ledger.count(DropReason::kWire, fault::kNumFaultClasses - 1),
            1u);
}

TEST(DropLedgerTest, ReasonNamesAreDistinct) {
  std::set<std::string> names;
  for (int r = 0; r < fault::kNumDropReasons; ++r) {
    names.insert(fault::drop_reason_name(static_cast<DropReason>(r)));
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(fault::kNumDropReasons));
  EXPECT_EQ(names.count("?"), 0u);
}

// ------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, InactiveWithAllRatesZero) {
  FaultPlan plan;
  plan.configure(FaultConfig{});
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlanTest, WireDropRateOneDropsEveryFrame) {
  FaultPlan plan;
  FaultConfig cfg;
  cfg.wire_drop_rate = 1.0;
  plan.configure(cfg);
  ASSERT_TRUE(plan.active());
  for (int i = 0; i < 10; ++i) {
    auto frame = make_frame();
    EXPECT_TRUE(plan.on_wire_frame(frame).drop);
  }
  EXPECT_EQ(plan.counters().wire_drops, 10u);
}

TEST(FaultPlanTest, SameSeedSameWireDecisions) {
  FaultConfig cfg;
  cfg.seed = 99;
  cfg.wire_drop_rate = 0.3;
  cfg.wire_corrupt_rate = 0.3;
  cfg.wire_truncate_rate = 0.2;
  cfg.wire_duplicate_rate = 0.2;
  cfg.wire_reorder_rate = 0.2;
  const auto run = [&cfg] {
    FaultPlan plan;
    plan.configure(cfg);
    std::vector<int> decisions;
    for (int i = 0; i < 300; ++i) {
      auto frame = make_frame();
      const auto act = plan.on_wire_frame(frame);
      decisions.push_back(act.drop ? 1 : 0);
      decisions.push_back(act.duplicate ? 1 : 0);
      decisions.push_back(static_cast<int>(act.reorder_delay));
      decisions.push_back(static_cast<int>(frame.size()));
    }
    return decisions;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultPlanTest, PayloadOnlyCorruptionLeavesHeadersIntact) {
  FaultPlan plan;
  FaultConfig cfg;
  cfg.wire_corrupt_rate = 1.0;
  cfg.corrupt_payload_only = true;
  plan.configure(cfg);

  auto frame = make_frame();
  const std::vector<std::uint8_t> before(frame.bytes().begin(),
                                         frame.bytes().end());
  const auto act = plan.on_wire_frame(frame);
  EXPECT_FALSE(act.drop);
  ASSERT_EQ(plan.counters().wire_corrupts, 1u);

  constexpr std::size_t kHeaders = net::EthernetHeader::kSize +
                                   net::Ipv4Header::kSize +
                                   net::UdpHeader::kSize;
  const auto after = frame.bytes();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < kHeaders; ++i) {
    EXPECT_EQ(after[i], before[i]) << "header byte " << i << " changed";
  }
  EXPECT_FALSE(std::equal(after.begin() + kHeaders, after.end(),
                          before.begin() + kHeaders));

  // The flipped bit is caught by receive-side UDP checksum validation.
  net::ParsedFrame parsed;
  ASSERT_TRUE(net::parse_frame_into(frame.bytes(), parsed));
  ASSERT_TRUE(parsed.udp.has_value());
  const auto datagram = frame.bytes().subspan(
      parsed.l4_payload_offset - net::UdpHeader::kSize, parsed.udp->length);
  EXPECT_FALSE(
      net::UdpHeader::verify_checksum(datagram, parsed.ip.src,
                                      parsed.ip.dst));
}

TEST(FaultPlanTest, TruncationShrinksFrame) {
  FaultPlan plan;
  FaultConfig cfg;
  cfg.wire_truncate_rate = 1.0;
  plan.configure(cfg);
  auto frame = make_frame();
  const std::size_t original = frame.size();
  (void)plan.on_wire_frame(frame);
  EXPECT_LT(frame.size(), original);
  EXPECT_GE(frame.size(), 1u);
  EXPECT_EQ(plan.counters().wire_truncates, 1u);
}

// ------------------------------------------------- end-to-end conservation

struct PoolBaseline {
  std::uint64_t skb_outstanding;
  std::uint64_t buf_outstanding;

  static PoolBaseline capture() {
    const auto& s = kernel::SkbPool::instance().stats();
    const auto& b = sim::BufferPool::instance().stats();
    return {s.acquired - s.released - s.discarded,
            b.acquired - b.released - b.discarded};
  }
};

TEST(FaultConservationTest, TotalWireDropNeitherDeliversNorLeaks) {
  const PoolBaseline before = PoolBaseline::capture();
  {
    TestbedConfig cfg;
    cfg.server_faults.seed = 7;
    cfg.server_faults.wire_drop_rate = 1.0;
    Testbed tb(cfg);
    auto& sock = tb.server().udp_bind(tb.server().root_ns(), 9000);
    constexpr std::uint64_t kSends = 100;
    for (std::uint64_t i = 0; i < kSends; ++i) {
      tb.sim().schedule_at(static_cast<sim::Time>(i) * 10'000, [&] {
        tb.client().udp_send(tb.client().root_ns(), tb.client().cpu(1),
                             5555, tb.server().ip(), 9000,
                             std::vector<std::uint8_t>(64, 1));
      });
    }
    tb.sim().run();
    EXPECT_EQ(sock.received(), 0u);
    const auto& layer = tb.server().faults();
    EXPECT_EQ(layer.plan.counters().wire_drops, kSends);
    EXPECT_EQ(layer.drops.total(DropReason::kWire), kSends);
    EXPECT_EQ(layer.drops.total_drops(), kSends);
    // Wire-dropped frames never count as received by the NIC.
    EXPECT_EQ(tb.server().nic().rx_frames(), 0u);
  }
  const PoolBaseline after = PoolBaseline::capture();
  EXPECT_EQ(after.skb_outstanding, before.skb_outstanding);
  EXPECT_EQ(after.buf_outstanding, before.buf_outstanding);
}

TEST(FaultConservationTest, MixedFaultsConservePerClass) {
  TestbedConfig cfg;
  cfg.mode = kernel::NapiMode::kPrismBatch;
  cfg.server_faults.seed = 11;
  cfg.server_faults.wire_drop_rate = 0.15;
  cfg.server_faults.wire_corrupt_rate = 0.15;  // payload-only (default)
  cfg.server_faults.wire_duplicate_rate = 0.15;
  cfg.server_faults.wire_reorder_rate = 0.15;
  cfg.server_faults.decap_corrupt_rate = 0.1;
  cfg.server_faults.ring_full_rate = 0.05;
  cfg.server_faults.backlog_full_rate = 0.05;
  cfg.server_faults.skb_alloc_fail_rate = 0.05;
  cfg.server_faults.buf_alloc_fail_rate = 0.05;
  Testbed tb(cfg);
  auto& c1 = tb.add_client_container("c1");
  auto& c2 = tb.add_server_container("c2");
  kernel::UdpSocket* socks[3] = {&tb.server().udp_bind(c2, 7000),
                                 &tb.server().udp_bind(c2, 7001),
                                 &tb.server().udp_bind(c2, 7002)};
  tb.server().priority_db().add(c2.ip(), 7001, 1);
  tb.server().priority_db().add(c2.ip(), 7002, 2);

  constexpr std::uint64_t kPerClass = 120;
  for (std::uint64_t i = 0; i < kPerClass; ++i) {
    for (int cls = 0; cls < 3; ++cls) {
      tb.sim().schedule_at(
          static_cast<sim::Time>(i * 3 + cls) * 5'000, [&, cls] {
            tb.client().udp_send(
                c1, tb.client().cpu(1), 4444, c2.ip(),
                static_cast<std::uint16_t>(7000 + cls),
                std::vector<std::uint8_t>(64, 0x11));
          });
    }
  }
  tb.sim().run();

  const auto& layer = tb.server().faults();
  for (int cls = 0; cls < 3; ++cls) {
    const std::uint64_t injected =
        kPerClass + layer.plan.duplicates_for_class(cls);
    const std::uint64_t accounted =
        socks[cls]->received() + layer.drops.class_total(cls);
    EXPECT_EQ(injected, accounted) << "class " << cls;
  }
  // The sweep exercised at least the wire-loss and corruption paths.
  EXPECT_GT(layer.plan.counters().wire_drops, 0u);
  EXPECT_GT(layer.plan.counters().wire_corrupts, 0u);
  EXPECT_GT(layer.plan.counters().wire_duplicates, 0u);
}

TEST(FaultConservationTest, IrqFaultsDelayButNeverDrop) {
  TestbedConfig cfg;
  cfg.server_faults.seed = 3;
  cfg.server_faults.irq_delay_rate = 0.5;
  cfg.server_faults.irq_storm_rate = 0.5;
  Testbed tb(cfg);
  auto& sock = tb.server().udp_bind(tb.server().root_ns(), 9000);
  constexpr std::uint64_t kSends = 50;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    tb.sim().schedule_at(static_cast<sim::Time>(i) * 20'000, [&] {
      tb.client().udp_send(tb.client().root_ns(), tb.client().cpu(1), 5555,
                           tb.server().ip(), 9000,
                           std::vector<std::uint8_t>(32, 2));
    });
  }
  tb.sim().run();
  EXPECT_EQ(sock.received(), kSends);
  EXPECT_EQ(tb.server().faults().drops.total_drops(), 0u);
  const auto& c = tb.server().faults().plan.counters();
  EXPECT_GT(c.irq_delays + c.irq_storm_irqs, 0u);
}

TEST(FaultConservationTest, RcvbufOverflowAccountedInLedger) {
  // Natural (non-injected) overflow: the ledger accounts it even with no
  // fault armed.
  Testbed tb;
  auto& sock =
      tb.server().udp_bind(tb.server().root_ns(), 9000, /*capacity=*/2);
  constexpr std::uint64_t kSends = 6;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    tb.sim().schedule_at(static_cast<sim::Time>(i) * 5'000, [&] {
      tb.client().udp_send(tb.client().root_ns(), tb.client().cpu(1), 5555,
                           tb.server().ip(), 9000,
                           std::vector<std::uint8_t>(32, 3));
    });
  }
  tb.sim().run();
  EXPECT_EQ(sock.received(), 2u);
  EXPECT_EQ(sock.dropped(), kSends - 2);
  EXPECT_EQ(tb.server().faults().drops.total(DropReason::kRcvbufFull),
            kSends - 2);
  // The delivered+dropped split stays conserved.
  EXPECT_EQ(sock.received() + sock.dropped(), kSends);
}

TEST(FaultDeterminismTest, SameSeedIdenticalSnapshotsPoolsOnAndOff) {
  const auto run = [](bool pools) {
    kernel::SkbPool::instance().set_enabled(pools);
    sim::BufferPool::instance().set_enabled(pools);
    TestbedConfig cfg;
    cfg.mode = kernel::NapiMode::kPrismBatch;
    cfg.server_faults.seed = 42;
    cfg.server_faults.wire_drop_rate = 0.2;
    cfg.server_faults.wire_corrupt_rate = 0.2;
    cfg.server_faults.wire_duplicate_rate = 0.1;
    cfg.server_faults.wire_reorder_rate = 0.1;
    cfg.server_faults.ring_full_rate = 0.05;
    cfg.server_faults.skb_alloc_fail_rate = 0.05;
    Testbed tb(cfg);
    auto& c1 = tb.add_client_container("c1");
    auto& c2 = tb.add_server_container("c2");
    tb.server().udp_bind(c2, 7000);
    tb.server().priority_db().add(c2.ip(), 7000, 1);
    for (int i = 0; i < 200; ++i) {
      tb.sim().schedule_at(static_cast<sim::Time>(i) * 7'000, [&] {
        tb.client().udp_send(c1, tb.client().cpu(1), 4444, c2.ip(), 7000,
                             std::vector<std::uint8_t>(64, 4));
      });
    }
    tb.sim().run();
    return tb.server().proc().read("prism/faults");
  };
  const std::string pooled_a = run(true);
  const std::string pooled_b = run(true);
  const std::string unpooled = run(false);
  kernel::SkbPool::instance().set_enabled(true);
  sim::BufferPool::instance().set_enabled(true);
  EXPECT_EQ(pooled_a, pooled_b);
  EXPECT_EQ(pooled_a, unpooled);
  EXPECT_NE(pooled_a.find("\"wire_drops\""), std::string::npos);
}

TEST(FaultProcTest, FaultsFileRendersPlanAndLedger) {
  Testbed tb;
  const std::string json = tb.server().proc().read("prism/faults");
  EXPECT_NE(json.find("\"active\":false"), std::string::npos);
  EXPECT_NE(json.find("\"injected\""), std::string::npos);
  EXPECT_NE(json.find("\"drops\""), std::string::npos);
  EXPECT_NE(json.find("\"total_drops\""), std::string::npos);
}

}  // namespace
}  // namespace prism
