#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernel/skb_pool.h"
#include "net/checksum.h"
#include "net/packet.h"
#include "overlay/fdb.h"
#include "overlay/netns.h"
#include "sim/simulator.h"
#include "telemetry/flow_table.h"
#include "telemetry/latency.h"

namespace perfbench {

using namespace prism;

namespace {

/// Results fold into this so no replayed call is dead code.
volatile std::uint64_t g_sink = 0;

using Clock = std::chrono::steady_clock;

double since_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// `batch(iters)` performs `iters` calls and returns the wall ns it spent
/// on them. The batch size doubles until one batch takes >= 2 ms; the
/// result is the median ns per call over nine batches of that size.
template <typename Batch>
double median_ns_per_call(Batch&& batch) {
  std::size_t iters = 64;
  while (iters < (std::size_t{1} << 26) &&
         batch(iters) < 2e6) {
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int i = 0; i < 9; ++i) {
    per_call.push_back(batch(iters) / static_cast<double>(iters));
  }
  std::nth_element(per_call.begin(), per_call.begin() + 4, per_call.end());
  return per_call[4];
}

/// Deterministic, run-time-valued payload bytes.
std::vector<std::uint8_t> payload_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::uint32_t x = static_cast<std::uint32_t>(n) * 2654435761u + 1;
  for (auto& b : v) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return v;
}

net::FrameSpec inner_spec() {
  net::FrameSpec s;
  s.src_mac = net::MacAddr::make(101);
  s.dst_mac = net::MacAddr::make(202);
  s.src_ip = net::Ipv4Addr::of(172, 17, 0, 2);
  s.dst_ip = net::Ipv4Addr::of(172, 17, 0, 4);
  s.src_port = 21000;
  s.dst_port = 11112;
  return s;
}

net::FrameSpec outer_spec() {
  net::FrameSpec s;
  s.src_mac = net::MacAddr::make(1);
  s.dst_mac = net::MacAddr::make(2);
  s.src_ip = net::Ipv4Addr::of(10, 0, 0, 1);
  s.dst_ip = net::Ipv4Addr::of(10, 0, 0, 2);
  s.src_port = 49152;
  s.dst_port = net::kVxlanPort;
  return s;
}

net::PacketBuf inner_frame(std::size_t payload, bool tcp) {
  const std::vector<std::uint8_t> data = payload_bytes(payload);
  if (tcp) {
    net::TcpHeader h;
    h.src_port = 41000;
    h.dst_port = 5201;
    h.seq = 1;
    h.ack = 1;
    h.flags = 0x18;  // PSH|ACK
    return net::build_tcp_frame(inner_spec(), h, data);
  }
  return net::build_udp_frame(inner_spec(), data);
}

/// One event's state in the scheduling replay: each event reschedules
/// itself until the batch's budget is spent, so the queue holds `depth`
/// events throughout.
struct EventLoop {
  sim::Simulator* sim = nullptr;
  std::uint64_t remaining = 0;
  std::uint32_t lcg = 1;
};

void fire(EventLoop* s) {
  if (s->remaining == 0) return;
  --s->remaining;
  s->lcg = s->lcg * 1664525u + 1013904223u;
  s->sim->schedule(1 + (s->lcg >> 22), [s] { fire(s); });
}

}  // namespace

double replay_event_ns(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  return median_ns_per_call([depth](std::size_t iters) {
    sim::Simulator sim;
    EventLoop loop{&sim, iters, static_cast<std::uint32_t>(iters)};
    for (std::size_t i = 0; i < depth; ++i) {
      sim.schedule(static_cast<sim::Duration>(i % 1024),
                   [&loop] { fire(&loop); });
    }
    const auto t0 = Clock::now();
    sim.run();
    const double ns = since_ns(t0);
    g_sink = g_sink + sim.events_executed();
    // Normalise to `iters` calls: the depth seed events ran too.
    return ns * static_cast<double>(iters) /
           static_cast<double>(sim.events_executed());
  });
}

double replay_pool_cycle_ns(std::size_t payload) {
  const std::vector<std::uint8_t> data = payload_bytes(payload);
  return median_ns_per_call([&data](std::size_t iters) {
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      kernel::SkbPool::Handle skb = kernel::SkbPool::instance().acquire();
      skb->buf = net::PacketBuf::from_payload(data);
      acc += skb->buf.size();
    }
    const double ns = since_ns(t0);
    g_sink = g_sink + acc;
    return ns;
  });
}

double replay_parse_ns(std::size_t payload, bool tcp) {
  net::PacketBuf frame = inner_frame(payload, tcp);
  net::vxlan_encapsulate(frame, outer_spec(), 42);
  return median_ns_per_call([&frame](std::size_t iters) {
    net::ParsedFrame out;
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      if (net::parse_frame_into(frame.bytes(), out)) {
        acc += out.l4_payload.size();
      }
    }
    const double ns = since_ns(t0);
    g_sink = g_sink + acc;
    return ns;
  });
}

double replay_vxlan_encap_ns(std::size_t payload, bool tcp) {
  net::PacketBuf frame = inner_frame(payload, tcp);
  const net::FrameSpec outer = outer_spec();
  return median_ns_per_call([&frame, &outer](std::size_t iters) {
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      net::vxlan_encapsulate(frame, outer, 42);
      acc += frame.size();
      frame.pop_front(net::kEncapHeadroom);
    }
    const double ns = since_ns(t0);
    g_sink = g_sink + acc;
    return ns;
  });
}

double replay_csum_ns_per_kb(std::size_t payload) {
  const std::vector<std::uint8_t> data = payload_bytes(payload);
  const double ns = median_ns_per_call([&data](std::size_t iters) {
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      acc += net::internet_checksum(data);
    }
    const double elapsed = since_ns(t0);
    g_sink = g_sink + acc;
    return elapsed;
  });
  return ns * 1024.0 / static_cast<double>(std::max<std::size_t>(payload, 1));
}

double replay_fdb_lookup_ns(std::size_t entries) {
  entries = std::max<std::size_t>(entries, 1);
  std::vector<std::unique_ptr<overlay::Netns>> ports;
  std::vector<net::MacAddr> macs;
  overlay::Fdb fdb;
  for (std::size_t i = 0; i < entries; ++i) {
    const auto id = static_cast<std::uint32_t>(1000 + i);
    macs.push_back(net::MacAddr::make(id));
    ports.push_back(std::make_unique<overlay::Netns>(
        "c" + std::to_string(i),
        net::Ipv4Addr::of(172, 17, 0, static_cast<std::uint8_t>(2 + i)),
        macs.back(), true));
    fdb.add(macs.back(), *ports.back());
  }
  return median_ns_per_call([&](std::size_t iters) {
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      acc += fdb.lookup(macs[i % macs.size()]) != nullptr;
    }
    const double ns = since_ns(t0);
    g_sink = g_sink + acc;
    return ns;
  });
}

double replay_ledger_record_ns() {
  telemetry::LatencyLedger ledger;
  sim::Time t = 0;
  return median_ns_per_call([&](std::size_t iters) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      kernel::SkbTimestamps ts;
      ts.nic_rx = t;
      ts.stage1_start = t + 900;
      ts.stage1_done = t + 1300;
      ts.stage2_start = t + 2100;
      ts.stage2_done = t + 2400;
      ts.stage3_start = t + 3000;
      ts.stage3_done = t + 3500;
      ts.socket_enqueue = t + 3500;
      ledger.record_delivery(ts, static_cast<int>(i & 1));
      t += 1000;
    }
    return since_ns(t0);
  });
}

double replay_flowtable_record_ns(std::size_t flows) {
  flows = std::max<std::size_t>(flows, 1);
  telemetry::FlowTable table;
  std::vector<net::FiveTuple> tuples;
  for (std::size_t i = 0; i < flows; ++i) {
    tuples.push_back({net::Ipv4Addr::of(172, 17, 0, 2),
                      net::Ipv4Addr::of(172, 17, 0, 4),
                      static_cast<std::uint16_t>(21000 + i), 11112,
                      net::IpProto::kUdp});
  }
  sim::Time t = 0;
  return median_ns_per_call([&](std::size_t iters) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      table.record(tuples[i % tuples.size()], 114, static_cast<int>(i & 1),
                   3500, t);
      t += 1000;
    }
    return since_ns(t0);
  });
}

}  // namespace perfbench
